#include "svc/journal.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

#include "ckpt/io.h"
#include "common/fault.h"

namespace quanta::svc {
namespace {

const ckpt::LogFormat kJournalFormat{"QJRNL1\r\n", 1};

std::vector<std::uint8_t> encode(JournalRecord type, std::uint64_t ticket,
                                 std::uint64_t fingerprint,
                                 const std::string& payload) {
  ckpt::io::Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(ticket);
  w.u64(fingerprint);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

struct Decoded {
  JournalRecord type;
  std::uint64_t ticket;
  std::uint64_t fingerprint;
  std::string payload;
};

bool decode(const std::vector<std::uint8_t>& rec, Decoded* out) {
  ckpt::io::Reader r(rec);
  const std::uint8_t type = r.u8();
  out->ticket = r.u64();
  out->fingerprint = r.u64();
  const std::uint32_t len = r.u32();
  if (!r.ok() || !r.fits(len, 1) || r.remaining() != len) return false;
  out->payload.assign(reinterpret_cast<const char*>(rec.data()) +
                          (rec.size() - len),
                      len);
  if (type < static_cast<std::uint8_t>(JournalRecord::kAdmit) ||
      type > static_cast<std::uint8_t>(JournalRecord::kQuarantineClear)) {
    return false;
  }
  out->type = static_cast<JournalRecord>(type);
  return true;
}

}  // namespace

JournalReplay Journal::replay(const std::string& path) {
  JournalReplay out;
  std::vector<std::vector<std::uint8_t>> records;
  const ckpt::LogScanStats scan = ckpt::scan_log(path, kJournalFormat, &records);
  out.dropped = scan.dropped;
  out.torn_tail = scan.torn_tail;
  out.fresh = scan.fresh != ckpt::LogFresh::kNo;
  out.note = scan.note;
  if (out.fresh) return out;

  // Fold in append order: later records win (a complete retires its admit,
  // a clear retires its quarantine).
  std::unordered_map<std::uint64_t, PendingJob> open_jobs;
  std::vector<std::uint64_t> admit_order;
  std::vector<std::uint64_t> quarantine_order;  // insertion order, deduped
  std::unordered_set<std::uint64_t> quarantined;
  for (const auto& rec : records) {
    Decoded d;
    if (!decode(rec, &d)) {
      ++out.dropped;
      continue;
    }
    if (d.ticket >= out.next_ticket) out.next_ticket = d.ticket + 1;
    switch (d.type) {
      case JournalRecord::kAdmit: {
        PendingJob job;
        job.ticket = d.ticket;
        job.fingerprint = d.fingerprint;
        job.request_json = d.payload;
        if (open_jobs.emplace(d.ticket, std::move(job)).second) {
          admit_order.push_back(d.ticket);
        }
        break;
      }
      case JournalRecord::kStart: {
        auto it = open_jobs.find(d.ticket);
        if (it != open_jobs.end()) it->second.started = true;
        break;
      }
      case JournalRecord::kComplete:
        open_jobs.erase(d.ticket);
        out.answers[d.ticket] = d.payload;
        break;
      case JournalRecord::kCrash:
        break;  // diagnostic trail only; retry/quarantine records decide
      case JournalRecord::kQuarantine:
        if (quarantined.insert(d.fingerprint).second) {
          quarantine_order.push_back(d.fingerprint);
        }
        break;
      case JournalRecord::kQuarantineClear:
        quarantined.erase(d.fingerprint);
        break;
    }
  }
  for (std::uint64_t ticket : admit_order) {
    auto it = open_jobs.find(ticket);
    if (it != open_jobs.end()) out.pending.push_back(it->second);
  }
  for (std::uint64_t fp : quarantine_order) {
    if (quarantined.count(fp) != 0) out.quarantined.push_back(fp);
  }
  while (out.answers.size() > kMaxTicketAnswers) {
    out.answers.erase(out.answers.begin());  // oldest ticket first
  }
  return out;
}

bool Journal::open(const std::string& path, const JournalReplay& replayed,
                   std::string* error) {
  healthy_ = false;
  // Compact before appending: boot is the one moment the full fold is in
  // hand, and it bounds journal growth to live state + this session's
  // appends. The atomic rewrite keeps the old journal on any failure.
  std::vector<std::vector<std::uint8_t>> compacted;
  for (std::uint64_t fp : replayed.quarantined) {
    compacted.push_back(encode(JournalRecord::kQuarantine, 0, fp, ""));
  }
  for (const auto& [ticket, json] : replayed.answers) {
    compacted.push_back(encode(JournalRecord::kComplete, ticket, 0, json));
  }
  for (const PendingJob& job : replayed.pending) {
    compacted.push_back(encode(JournalRecord::kAdmit, job.ticket,
                               job.fingerprint, job.request_json));
  }
  try {
    common::FaultInjector::site("svc.journal.append");
    if (!log_.rewrite(path, kJournalFormat, compacted,
                      "svc.journal.append")) {
      if (error != nullptr) *error = "journal compaction failed: " + path;
      return false;
    }
  } catch (const std::exception& e) {
    if (error != nullptr) {
      *error = std::string("journal compaction failed: ") + e.what();
    }
    return false;
  }
  healthy_ = true;
  return true;
}

void Journal::append(JournalRecord type, std::uint64_t ticket,
                     std::uint64_t fingerprint, const std::string& payload) {
  if (!healthy_) return;
  bool ok = false;
  try {
    common::FaultInjector::site("svc.journal.append");
    ok = log_.append(encode(type, ticket, fingerprint, payload));
  } catch (const std::exception&) {
    ok = false;
  }
  if (ok) {
    ++appends_;
    return;
  }
  ++append_failures_;
  healthy_ = false;
  log_.close();
  std::fprintf(stderr,
               "quantad: journal append failed; continuing without "
               "journaling (completed work is no longer restart-durable)\n");
}

void Journal::admit(std::uint64_t ticket, std::uint64_t fingerprint,
                    const std::string& request_json) {
  append(JournalRecord::kAdmit, ticket, fingerprint, request_json);
}

void Journal::start(std::uint64_t ticket, std::uint64_t fingerprint) {
  append(JournalRecord::kStart, ticket, fingerprint, "");
}

void Journal::complete(std::uint64_t ticket, std::uint64_t fingerprint,
                       const std::string& response_json) {
  append(JournalRecord::kComplete, ticket, fingerprint, response_json);
}

void Journal::crash(std::uint64_t ticket, std::uint64_t fingerprint,
                    const std::string& detail) {
  append(JournalRecord::kCrash, ticket, fingerprint, detail);
}

void Journal::quarantine(std::uint64_t fingerprint) {
  append(JournalRecord::kQuarantine, 0, fingerprint, "");
}

void Journal::clear_quarantine(std::uint64_t fingerprint) {
  append(JournalRecord::kQuarantineClear, 0, fingerprint, "");
}

}  // namespace quanta::svc
