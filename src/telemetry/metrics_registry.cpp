#include "telemetry/metrics_registry.hpp"

#include <cstdarg>
#include <cstdio>
#include <numeric>

#include "htm/htm_types.hpp"
#include "telemetry/telemetry.hpp"

namespace nvhalt::telemetry {

namespace {

/// printf-style append with no length cap: measures, then formats in place.
void append(std::string& out, const char* fmt, ...) {
  va_list ap, again;
  va_start(ap, fmt);
  va_copy(again, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt, again);
    out.resize(at + static_cast<std::size_t>(n));
  }
  va_end(again);
}

void json_hist(std::string& out, const char* key, const PowHistogram& h) {
  append(out, "\"%s\":{\"count\":%llu,\"sum\":%llu,\"mean\":%.2f,\"p50\":%llu,\"p99\":%llu,\"buckets\":[",
         key, static_cast<unsigned long long>(h.count()),
         static_cast<unsigned long long>(h.sum()), h.mean(),
         static_cast<unsigned long long>(h.quantile_bound(0.50)),
         static_cast<unsigned long long>(h.quantile_bound(0.99)));
  const int hi = h.used_buckets();
  for (int b = 0; b < hi; ++b) {
    append(out, "%s%llu", b ? "," : "",
           static_cast<unsigned long long>(h.bucket_count(b)));
  }
  out += "]}";
}

void json_taxonomy(std::string& out, const TmStats& t) {
  const auto total = [](const auto& by_cause) {
    return std::accumulate(by_cause.begin(), by_cause.end(), std::uint64_t{0});
  };
  out += "\"abort_taxonomy\":{";
  for (std::size_t c = 0; c < kNumAbortCauses; ++c) {
    append(out, "%s\"%s\":%llu", c ? "," : "",
           htm::abort_cause_name(static_cast<htm::AbortCause>(c)),
           static_cast<unsigned long long>(t.hw_by_cause[c]));
  }
  for (std::size_t c = 0; c < kNumRoAbortCauses; ++c) {
    append(out, ",\"%s\":%llu", ro_abort_cause_name(static_cast<RoAbortCause>(c)),
           static_cast<unsigned long long>(t.ro_by_cause[c]));
  }
  append(out, ",\"hw_total\":%llu,\"ro_total\":%llu,\"sw_aborts\":%llu,\"user_aborts\":%llu}",
         static_cast<unsigned long long>(total(t.hw_by_cause)),
         static_cast<unsigned long long>(total(t.ro_by_cause)),
         static_cast<unsigned long long>(t.sw_aborts),
         static_cast<unsigned long long>(t.user_aborts));
}

void prom_counter(std::string& out, const char* metric, const std::string& labels,
                  std::uint64_t v) {
  append(out, "nvhalt_%s%s %llu\n", metric,
         labels.empty() ? "" : ("{" + labels + "}").c_str(),
         static_cast<unsigned long long>(v));
}

void prom_hist(std::string& out, const char* metric, const std::string& labels,
               const PowHistogram& h) {
  const std::string sep = labels.empty() ? "" : ",";
  std::uint64_t cum = 0;
  const int hi = h.used_buckets();
  for (int b = 0; b < hi; ++b) {
    cum += h.bucket_count(b);
    append(out, "nvhalt_%s_bucket{%s%sle=\"%llu\"} %llu\n", metric, labels.c_str(),
           sep.c_str(),
           static_cast<unsigned long long>(PowHistogram::bucket_upper_bound(b)),
           static_cast<unsigned long long>(cum));
  }
  append(out, "nvhalt_%s_bucket{%s%sle=\"+Inf\"} %llu\n", metric, labels.c_str(),
         sep.c_str(), static_cast<unsigned long long>(h.count()));
  append(out, "nvhalt_%s_sum%s %llu\n", metric,
         labels.empty() ? "" : ("{" + labels + "}").c_str(),
         static_cast<unsigned long long>(h.sum()));
  append(out, "nvhalt_%s_count%s %llu\n", metric,
         labels.empty() ? "" : ("{" + labels + "}").c_str(),
         static_cast<unsigned long long>(h.count()));
}

}  // namespace

void MetricsRegistry::add_tm(TransactionalMemory& tm, std::string label) {
  if (label.empty()) label = tm.name();
  tms_.push_back({&tm, std::move(label)});
}

void MetricsRegistry::add_pool(PmemPool& pool, std::string label) {
  pools_.push_back({&pool, std::move(label)});
}

void MetricsRegistry::add_alloc(const TxAllocator& alloc, std::string label) {
  allocs_.push_back({&alloc, std::move(label)});
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  for (const TmEntry& e : tms_) {
    TmMetrics m;
    m.name = e.label;
    m.stats = e.tm->stats();
    if (const ContentionTable* ct = e.tm->contention()) {
      m.has_contention = true;
      m.contention_stripes = ct->stripes();
      m.contention = ct->totals();
      m.hot_stripes = ct->top_k(16);
    }
    snap.tms.push_back(std::move(m));
  }
  for (const PoolEntry& e : pools_) {
    PoolMetrics m;
    m.name = e.label;
    m.flush_count = e.pool->flush_count();
    m.fence_count = e.pool->fence_count();
    m.flush_dedup_count = e.pool->flush_dedup_count();
    m.fence_lines = e.pool->fence_flush_hist();
    snap.pools.push_back(std::move(m));
  }
  for (const AllocEntry& e : allocs_) {
    AllocMetrics m;
    m.name = e.label;
    m.stats = e.alloc->stats();
    m.recovery = e.alloc->last_recovery();
    m.global_epoch = e.alloc->epochs().global_epoch();
    m.reclaim_latency_ns = e.alloc->epochs().reclaim_latency_ns();
    snap.allocs.push_back(std::move(m));
  }
  return snap;
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"schema\":\"nvhalt-metrics-v2\",\"telemetry_level\":";
  append(out, "%d,\"tms\":[", kLevel);
  for (std::size_t i = 0; i < tms.size(); ++i) {
    const TmMetrics& m = tms[i];
    if (i) out += ",";
    append(out,
           "{\"name\":\"%s\",\"commits\":%llu,\"hw_commits\":%llu,\"sw_commits\":%llu,"
           "\"ro_commits\":%llu,\"read_only_commits\":%llu,\"hw_aborts\":%llu,"
           "\"sw_aborts\":%llu,\"ro_aborts\":%llu,"
           "\"fallbacks\":%llu,\"user_aborts\":%llu,",
           m.name.c_str(), static_cast<unsigned long long>(m.stats.commits),
           static_cast<unsigned long long>(m.stats.hw_commits),
           static_cast<unsigned long long>(m.stats.sw_commits),
           static_cast<unsigned long long>(m.stats.ro_commits),
           static_cast<unsigned long long>(m.stats.read_only_commits),
           static_cast<unsigned long long>(m.stats.hw_aborts),
           static_cast<unsigned long long>(m.stats.sw_aborts),
           static_cast<unsigned long long>(m.stats.ro_aborts),
           static_cast<unsigned long long>(m.stats.fallbacks),
           static_cast<unsigned long long>(m.stats.user_aborts));
    json_taxonomy(out, m.stats);
    out += ",";
    json_hist(out, "tx_latency_hw_ticks", m.stats.tx_latency_hw);
    out += ",";
    json_hist(out, "tx_latency_sw_ticks", m.stats.tx_latency_sw);
    out += ",";
    json_hist(out, "write_set_words", m.stats.write_set_size);
    out += ",";
    json_hist(out, "ack_latency_ticks", m.stats.ack_latency);
    if (m.has_contention) {
      append(out,
             ",\"contention\":{\"stripes\":%llu,\"stalls\":%llu,\"stall_ticks\":%llu,"
             "\"cas_failures\":%llu,\"aborts\":%llu,\"top\":[",
             static_cast<unsigned long long>(m.contention_stripes),
             static_cast<unsigned long long>(m.contention.stalls),
             static_cast<unsigned long long>(m.contention.stall_ticks),
             static_cast<unsigned long long>(m.contention.cas_failures),
             static_cast<unsigned long long>(m.contention.aborts));
      for (std::size_t s = 0; s < m.hot_stripes.size(); ++s) {
        const StripeContention& sc = m.hot_stripes[s];
        append(out,
               "%s{\"stripe\":%llu,\"stalls\":%llu,\"stall_ticks\":%llu,"
               "\"cas_failures\":%llu,\"aborts\":%llu,\"score\":%llu}",
               s ? "," : "", static_cast<unsigned long long>(sc.stripe),
               static_cast<unsigned long long>(sc.stalls),
               static_cast<unsigned long long>(sc.stall_ticks),
               static_cast<unsigned long long>(sc.cas_failures),
               static_cast<unsigned long long>(sc.aborts),
               static_cast<unsigned long long>(sc.score()));
      }
      out += "]}";
    }
    out += "}";
  }
  out += "],\"pools\":[";
  for (std::size_t i = 0; i < pools.size(); ++i) {
    const PoolMetrics& p = pools[i];
    if (i) out += ",";
    append(out,
           "{\"name\":\"%s\",\"flush_count\":%llu,\"fence_count\":%llu,"
           "\"flush_dedup_count\":%llu,",
           p.name.c_str(), static_cast<unsigned long long>(p.flush_count),
           static_cast<unsigned long long>(p.fence_count),
           static_cast<unsigned long long>(p.flush_dedup_count));
    json_hist(out, "fence_lines", p.fence_lines);
    out += "}";
  }
  out += "],\"allocs\":[";
  for (std::size_t i = 0; i < allocs.size(); ++i) {
    const AllocMetrics& a = allocs[i];
    if (i) out += ",";
    append(out,
           "{\"name\":\"%s\",\"allocs\":%llu,\"frees\":%llu,\"segments_acquired\":%llu,"
           "\"retired\":%llu,\"reclaimed\":%llu,\"limbo\":%llu,\"orphans_swept\":%llu,"
           "\"leaked_reclaimed\":%llu,\"global_epoch\":%llu,",
           a.name.c_str(), static_cast<unsigned long long>(a.stats.allocs),
           static_cast<unsigned long long>(a.stats.frees),
           static_cast<unsigned long long>(a.stats.segments_acquired),
           static_cast<unsigned long long>(a.stats.retired),
           static_cast<unsigned long long>(a.stats.reclaimed),
           static_cast<unsigned long long>(a.stats.limbo),
           static_cast<unsigned long long>(a.stats.orphans_swept),
           static_cast<unsigned long long>(a.stats.leaked_reclaimed),
           static_cast<unsigned long long>(a.global_epoch));
    append(out,
           "\"recovery\":{\"ran\":%s,\"found_metadata\":%s,\"intents_applied\":%llu,"
           "\"intents_reverted\":%llu,\"intents_skipped\":%llu,\"orphans_swept\":%llu,"
           "\"watermark\":%llu,\"free_slots\":%llu,\"free_segments\":%llu},",
           a.recovery.ran ? "true" : "false", a.recovery.found_metadata ? "true" : "false",
           static_cast<unsigned long long>(a.recovery.intents_applied),
           static_cast<unsigned long long>(a.recovery.intents_reverted),
           static_cast<unsigned long long>(a.recovery.intents_skipped),
           static_cast<unsigned long long>(a.recovery.orphans_swept),
           static_cast<unsigned long long>(a.recovery.watermark),
           static_cast<unsigned long long>(a.recovery.free_slots),
           static_cast<unsigned long long>(a.recovery.free_segments));
    json_hist(out, "reclaim_latency_ns", a.reclaim_latency_ns);
    out += "}";
  }
  out += "]}";
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  out += "# HELP nvhalt_commits_total Committed transactions.\n";
  out += "# TYPE nvhalt_commits_total counter\n";
  out += "# HELP nvhalt_hw_aborts_total Hardware aborts by decoded cause.\n";
  out += "# TYPE nvhalt_hw_aborts_total counter\n";
  // Histogram declarations: every _bucket/_sum/_count triple below belongs
  // to one of these families (Prometheus native-histogram ingestion keys
  // off the TYPE line; bare samples are scraped as untyped otherwise).
  out += "# HELP nvhalt_tx_latency_ticks Transaction latency by path.\n";
  out += "# TYPE nvhalt_tx_latency_ticks histogram\n";
  out += "# HELP nvhalt_write_set_words Committed write-set size in words.\n";
  out += "# TYPE nvhalt_write_set_words histogram\n";
  out += "# HELP nvhalt_ack_latency_ticks Durability-ack wait latency.\n";
  out += "# TYPE nvhalt_ack_latency_ticks histogram\n";
  out += "# HELP nvhalt_pool_fence_lines Lines flushed per fence.\n";
  out += "# TYPE nvhalt_pool_fence_lines histogram\n";
  // Pool persistence counter families (flush/fence/dedup were previously
  // emitted bare, which scrapes as untyped — declare them like the rest).
  out += "# HELP nvhalt_pool_flushes_total Cache-line write-backs persisted.\n";
  out += "# TYPE nvhalt_pool_flushes_total counter\n";
  out += "# HELP nvhalt_pool_fences_total Ordering fences issued.\n";
  out += "# TYPE nvhalt_pool_fences_total counter\n";
  out += "# HELP nvhalt_pool_flush_dedup_total Queued flushes coalesced before write-back.\n";
  out += "# TYPE nvhalt_pool_flush_dedup_total counter\n";
  out += "# HELP nvhalt_alloc_reclaim_latency_ns Retire-to-reclaim latency.\n";
  out += "# TYPE nvhalt_alloc_reclaim_latency_ns histogram\n";
  // Contention observatory counter families (per-TM totals plus a
  // per-stripe gauge for the top-K heat view).
  out += "# HELP nvhalt_lock_stalls_total Lock-acquire stalls observed.\n";
  out += "# TYPE nvhalt_lock_stalls_total counter\n";
  out += "# HELP nvhalt_lock_stall_ticks_total Ticks spent stalled on locks.\n";
  out += "# TYPE nvhalt_lock_stall_ticks_total counter\n";
  out += "# HELP nvhalt_lock_cas_failures_total Lock-word CAS losses.\n";
  out += "# TYPE nvhalt_lock_cas_failures_total counter\n";
  out += "# HELP nvhalt_lock_aborts_total Aborts attributed to a lock stripe.\n";
  out += "# TYPE nvhalt_lock_aborts_total counter\n";
  out += "# HELP nvhalt_lock_stripe_score Contention score of a hot stripe.\n";
  out += "# TYPE nvhalt_lock_stripe_score gauge\n";
  for (const TmMetrics& m : tms) {
    const std::string tm_label = "tm=\"" + m.name + "\"";
    prom_counter(out, "commits_total", tm_label + ",path=\"hw\"", m.stats.hw_commits);
    prom_counter(out, "commits_total", tm_label + ",path=\"sw\"", m.stats.sw_commits);
    prom_counter(out, "commits_total", tm_label + ",path=\"ro\"", m.stats.ro_commits);
    prom_counter(out, "read_only_commits_total", tm_label, m.stats.read_only_commits);
    prom_counter(out, "fallbacks_total", tm_label, m.stats.fallbacks);
    prom_counter(out, "sw_aborts_total", tm_label, m.stats.sw_aborts);
    prom_counter(out, "user_aborts_total", tm_label, m.stats.user_aborts);
    for (std::size_t c = 0; c < kNumAbortCauses; ++c) {
      prom_counter(out, "hw_aborts_total",
                   tm_label + ",cause=\"" +
                       htm::abort_cause_name(static_cast<htm::AbortCause>(c)) + "\"",
                   m.stats.hw_by_cause[c]);
    }
    for (std::size_t c = 0; c < kNumRoAbortCauses; ++c) {
      prom_counter(out, "ro_aborts_total",
                   tm_label + ",cause=\"" +
                       ro_abort_cause_name(static_cast<RoAbortCause>(c)) + "\"",
                   m.stats.ro_by_cause[c]);
    }
    prom_hist(out, "tx_latency_ticks", tm_label + ",path=\"hw\"", m.stats.tx_latency_hw);
    prom_hist(out, "tx_latency_ticks", tm_label + ",path=\"sw\"", m.stats.tx_latency_sw);
    prom_hist(out, "write_set_words", tm_label, m.stats.write_set_size);
    prom_hist(out, "ack_latency_ticks", tm_label, m.stats.ack_latency);
    if (m.has_contention) {
      prom_counter(out, "lock_stalls_total", tm_label, m.contention.stalls);
      prom_counter(out, "lock_stall_ticks_total", tm_label, m.contention.stall_ticks);
      prom_counter(out, "lock_cas_failures_total", tm_label, m.contention.cas_failures);
      prom_counter(out, "lock_aborts_total", tm_label, m.contention.aborts);
      for (const StripeContention& sc : m.hot_stripes) {
        append(out, "nvhalt_lock_stripe_score{%s,stripe=\"%llu\"} %llu\n",
               tm_label.c_str(), static_cast<unsigned long long>(sc.stripe),
               static_cast<unsigned long long>(sc.score()));
      }
    }
  }
  for (const PoolMetrics& p : pools) {
    const std::string pool_label = "pool=\"" + p.name + "\"";
    prom_counter(out, "pool_flushes_total", pool_label, p.flush_count);
    prom_counter(out, "pool_fences_total", pool_label, p.fence_count);
    prom_counter(out, "pool_flush_dedup_total", pool_label, p.flush_dedup_count);
    prom_hist(out, "pool_fence_lines", pool_label, p.fence_lines);
  }
  for (const AllocMetrics& a : allocs) {
    const std::string alloc_label = "alloc=\"" + a.name + "\"";
    prom_counter(out, "alloc_allocs_total", alloc_label, a.stats.allocs);
    prom_counter(out, "alloc_frees_total", alloc_label, a.stats.frees);
    prom_counter(out, "alloc_segments_acquired_total", alloc_label, a.stats.segments_acquired);
    prom_counter(out, "alloc_retired_total", alloc_label, a.stats.retired);
    prom_counter(out, "alloc_reclaimed_total", alloc_label, a.stats.reclaimed);
    prom_counter(out, "alloc_orphans_swept_total", alloc_label, a.stats.orphans_swept);
    prom_counter(out, "alloc_leaked_reclaimed_total", alloc_label, a.stats.leaked_reclaimed);
    append(out, "nvhalt_alloc_limbo_depth{%s} %llu\n", alloc_label.c_str(),
           static_cast<unsigned long long>(a.stats.limbo));
    append(out, "nvhalt_alloc_global_epoch{%s} %llu\n", alloc_label.c_str(),
           static_cast<unsigned long long>(a.global_epoch));
    prom_hist(out, "alloc_reclaim_latency_ns", alloc_label, a.reclaim_latency_ns);
  }
  return out;
}

}  // namespace nvhalt::telemetry
