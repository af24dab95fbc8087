#include "engine.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "host.hpp"

namespace nvhalt::bench {

namespace {

std::string fmt_num(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Strict, schema-directed reader for the one document shape to_json
/// writes. Every failure names the byte offset where parsing stopped.
class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("byte " + std::to_string(pos_) + ": " + what);
  }

  void expect(char c) {
    ws();
    if (pos_ >= s_.size()) fail(std::string("truncated input, expected '") + c + "'");
    if (s_[pos_] != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  std::string str() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) fail("truncated input inside a string");
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control character inside a string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) fail("truncated input inside an escape");
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out += e; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // to_json escapes only control characters; UTF-8 passes through.
          unsigned cp = 0;
          if (pos_ + 4 > s_.size() ||
              std::from_chars(s_.data() + pos_, s_.data() + pos_ + 4, cp, 16).ptr !=
                  s_.data() + pos_ + 4 ||
              cp >= 0x80)
            fail("bad \\u escape");
          pos_ += 4;
          out += static_cast<char>(cp);
          break;
        }
        default:
          --pos_;
          fail(std::string("bad escape '\\") + e + "'");
      }
    }
  }

  double num() {
    ws();
    // JSON grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
    std::size_t p = pos_;
    const auto digits = [&] {
      const std::size_t from = p;
      while (p < s_.size() && s_[p] >= '0' && s_[p] <= '9') ++p;
      return p > from;
    };
    if (p < s_.size() && s_[p] == '-') ++p;
    if (!digits()) fail("expected a number");
    if (p < s_.size() && s_[p] == '.' && (++p, !digits())) fail("bad fraction");
    if (p < s_.size() && (s_[p] == 'e' || s_[p] == 'E')) {
      ++p;
      if (p < s_.size() && (s_[p] == '+' || s_[p] == '-')) ++p;
      if (!digits()) fail("bad exponent");
    }
    double v = 0;
    const auto r = std::from_chars(s_.data() + pos_, s_.data() + p, v);
    if (r.ec != std::errc{} || !std::isfinite(v)) fail("number is not finite");
    pos_ = p;
    return v;
  }

  int integer() {
    const double v = num();
    if (v != std::floor(v) || std::fabs(v) > std::numeric_limits<int>::max())
      fail("expected an integer");
    return static_cast<int>(v);
  }

  template <typename F>
  void object(F&& member) {
    expect('{');
    if (peek('}')) return;
    do {
      const std::string key = str();
      expect(':');
      member(key);
    } while (peek(','));
    expect('}');
  }

  template <typename F>
  void array(F&& element) {
    expect('[');
    if (peek(']')) return;
    do element();
    while (peek(','));
    expect(']');
  }

  void finish() {
    ws();
    if (pos_ != s_.size()) fail("trailing garbage after the document");
  }

 private:
  void ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
                                s_[pos_] == '\r'))
      ++pos_;
  }
  /// Consumes `c` if it is next.
  bool peek(char c) {
    ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// The metric every cell orders its rounds by for ledger fields.
const MetricSpec& primary(const SweepSpec& spec) { return spec.metrics.front(); }

/// Rounds ordered worst to best by `key`.
std::vector<std::size_t> order_rounds(const std::vector<Sample>& rounds, const MetricSpec& key) {
  std::vector<std::size_t> order(rounds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double va = rounds[a].at(key.name), vb = rounds[b].at(key.name);
    return key.better == Better::kLower ? va > vb : va < vb;
  });
  return order;
}

std::string git_describe() {
#ifdef NVHALT_SOURCE_DIR
  const std::string cmd = std::string("git -C \"") + NVHALT_SOURCE_DIR +
                          "\" describe --always --dirty --abbrev=12 2>/dev/null";
  if (FILE* p = popen(cmd.c_str(), "r")) {
    char buf[128] = {};
    const bool got = std::fgets(buf, sizeof buf, p) != nullptr;
    pclose(p);
    std::string s = got ? buf : "";
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    if (!s.empty()) return s;
  }
#endif
  return "unknown";
}

}  // namespace

Scale scale_for(bool smoke) {
  Scale s = smoke ? Scale{true, 1 << 10, 20, 300, 1} : Scale{false, 1 << 14, 150, 3000, 3};
  if (const char* v = std::getenv("NVHALT_BENCH_ROUNDS"); v != nullptr && std::atoi(v) > 0)
    s.rounds = std::atoi(v);
  return s;
}

Host this_host() {
  return {static_cast<int>(std::thread::hardware_concurrency()), perfbench::cpu_model(),
          perfbench::compiler_id(), git_describe()};
}

const SweepSpec* find_sweep(const std::string& name) {
  for (const SweepSpec& s : sweeps())
    if (s.name == name) return &s;
  return nullptr;
}

std::string dim(const Dims& d, const std::string& name) {
  for (const auto& [k, v] : d)
    if (k == name) return v;
  return {};
}

std::string cell_label(const Dims& d) {
  std::string out = "{";
  for (const auto& [k, v] : d) out += (out.size() > 1 ? " " : "") + k + "=" + v;
  return out + "}";
}

BenchFile run_sweep(const SweepSpec& spec, const Scale& scale, const Host& host) {
  BenchFile f{spec.name, scale, host, {}};
  for (const Dims& d : spec.cells) {
    std::vector<Sample> rounds;
    for (int r = 0; r < scale.rounds; ++r) rounds.push_back(spec.measure(d, scale));
    Cell c{d, {}};
    const std::vector<std::size_t> by_primary = order_rounds(rounds, primary(spec));
    for (const MetricSpec& m : spec.metrics) {
      if (!rounds.front().count(m.name))
        throw std::logic_error(spec.name + " measure() left out metric " + m.name);
      const auto& order = m.better == Better::kNone ? by_primary : order_rounds(rounds, m);
      c.metrics[m.name] = {rounds[order[(order.size() - 1) / 2]].at(m.name),
                           rounds[order.back()].at(m.name)};
    }
    std::fprintf(stderr, "%s %s: %s %.4g\n", spec.name.c_str(), cell_label(d).c_str(),
                 primary(spec).name.c_str(), c.metrics[primary(spec).name].med);
    f.cells.push_back(std::move(c));
  }
  return f;
}

std::string to_json(const BenchFile& f) {
  std::string out = "{\"schema\":\"nvhalt-bench-v2\",\"sweep\":" + quoted(f.sweep) +
                    ",\"mode\":" + (f.scale.smoke ? "\"smoke\"" : "\"full\"") +
                    ",\"scale\":{\"keys\":" + std::to_string(f.scale.keys) +
                    ",\"ms\":" + std::to_string(f.scale.ms) +
                    ",\"iters\":" + std::to_string(f.scale.iters) +
                    ",\"rounds\":" + std::to_string(f.scale.rounds) +
                    "},\"host\":{\"nproc\":" + std::to_string(f.host.nproc) +
                    ",\"cpu\":" + quoted(f.host.cpu) + ",\"compiler\":" + quoted(f.host.compiler) +
                    ",\"git\":" + quoted(f.host.git) + "},\"cells\":[";
  for (std::size_t i = 0; i < f.cells.size(); ++i) {
    out += i == 0 ? "\n{\"dims\":{" : ",\n{\"dims\":{";
    const Cell& c = f.cells[i];
    for (std::size_t j = 0; j < c.dims.size(); ++j)
      out += (j ? "," : "") + quoted(c.dims[j].first) + ":" + quoted(c.dims[j].second);
    out += "},\"metrics\":{";
    bool first = true;
    for (const auto& [name, s] : c.metrics) {
      out += (first ? "" : ",") + quoted(name) + ":[" + fmt_num(s.med) + "," + fmt_num(s.best) +
             "]";
      first = false;
    }
    out += "}}";
  }
  return out + "\n]}\n";
}

BenchFile from_json(const std::string& text) {
  BenchFile f;
  Reader r(text);
  r.object([&](const std::string& key) {
    if (key == "schema") {
      if (r.str() != "nvhalt-bench-v2") r.fail("unknown schema");
    } else if (key == "sweep") {
      f.sweep = r.str();
    } else if (key == "mode") {
      const std::string mode = r.str();
      if (mode != "smoke" && mode != "full") r.fail("mode must be smoke or full");
      f.scale.smoke = mode == "smoke";
    } else if (key == "scale") {
      r.object([&](const std::string& k) {
        if (k == "keys") f.scale.keys = r.integer();
        else if (k == "ms") f.scale.ms = r.integer();
        else if (k == "iters") f.scale.iters = r.integer();
        else if (k == "rounds") f.scale.rounds = r.integer();
        else r.fail("unknown scale key '" + k + "'");
      });
    } else if (key == "host") {
      r.object([&](const std::string& k) {
        if (k == "nproc") f.host.nproc = r.integer();
        else if (k == "cpu") f.host.cpu = r.str();
        else if (k == "compiler") f.host.compiler = r.str();
        else if (k == "git") f.host.git = r.str();
        else r.fail("unknown host key '" + k + "'");
      });
    } else if (key == "cells") {
      r.array([&] {
        Cell c;
        r.object([&](const std::string& k) {
          if (k == "dims") {
            r.object([&](const std::string& d) { c.dims.emplace_back(d, r.str()); });
          } else if (k == "metrics") {
            r.object([&](const std::string& m) {
              Stat s;
              r.expect('[');
              s.med = r.num();
              r.expect(',');
              s.best = r.num();
              r.expect(']');
              c.metrics[m] = s;
            });
          } else {
            r.fail("unknown cell key '" + k + "'");
          }
        });
        f.cells.push_back(std::move(c));
      });
    } else {
      r.fail("unknown key '" + key + "'");
    }
  });
  r.finish();
  return f;
}

std::vector<std::string> check(const SweepSpec& spec, const BenchFile& f,
                               std::vector<std::string>* notes) {
  std::vector<std::string> errors;
  const auto report = [&](std::vector<std::string>& to, const Dims& d, const std::string& what) {
    to.push_back(spec.name + " " + cell_label(d) + ": " + what);
  };
  if (f.sweep != spec.name) report(errors, {}, "file holds sweep '" + f.sweep + "'");
  std::map<Dims, int> seen;
  for (const Cell& c : f.cells) {
    if (++seen[c.dims] > 1)
      report(errors, c.dims, "duplicate cell");
    else if (std::find(spec.cells.begin(), spec.cells.end(), c.dims) == spec.cells.end())
      report(errors, c.dims, "extra cell, not in the spec's cell list");
  }
  for (const Dims& d : spec.cells)
    if (!seen.count(d)) report(errors, d, "missing cell");

  std::vector<std::string> ignored;
  for (const Cell& c : f.cells) {
    for (const MetricSpec& m : spec.metrics)
      if (!c.metrics.count(m.name)) report(errors, c.dims, "missing metric " + m.name);
    for (const Invariant& inv : spec.invariants) {
      for (const bool best : {false, true}) {
        const MetricView view = [&](const std::string& name) {
          const auto it = c.metrics.find(name);
          if (it == c.metrics.end()) return std::numeric_limits<double>::quiet_NaN();
          return best ? it->second.best : it->second.med;
        };
        const std::string why = inv.check(c.dims, view);
        if (why.empty()) continue;
        report(inv.advisory ? (notes ? *notes : ignored) : errors, c.dims,
               inv.name + ": " + why + (best ? " (best round)" : " (median round)"));
        break;
      }
    }
  }
  return errors;
}

int compare(const SweepSpec& spec, const BenchFile& base, const BenchFile& cur,
            double tolerance, std::string& report) {
  if (!(base.scale == cur.scale)) {
    report += spec.name + ": no cells pair, the baseline was measured at another scale (" +
              (base.scale.smoke ? "smoke" : "full") + " keys=" + std::to_string(base.scale.keys) +
              " ms=" + std::to_string(base.scale.ms) + " rounds=" +
              std::to_string(base.scale.rounds) + ")\n";
    return 0;
  }
  const bool same_host = base.host.cpu == cur.host.cpu && base.host.nproc == cur.host.nproc;
  struct Delta {
    std::string what;
    double ratio;
  };
  std::vector<Delta> deltas;
  for (const Cell& c : cur.cells) {
    const auto b = std::find_if(base.cells.begin(), base.cells.end(),
                                [&](const Cell& x) { return x.dims == c.dims; });
    if (b == base.cells.end()) continue;
    for (const MetricSpec& m : spec.metrics) {
      if (!m.gated || !c.metrics.count(m.name) || !b->metrics.count(m.name)) continue;
      const double now = c.metrics.at(m.name).med, was = b->metrics.at(m.name).med;
      if (now <= 0 || was <= 0) continue;
      deltas.push_back({cell_label(c.dims) + " " + m.name,
                        m.better == Better::kLower ? was / now : now / was});
    }
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const Delta& a, const Delta& b) { return a.ratio < b.ratio; });
  int below = 0;
  for (const Delta& d : deltas) {
    const bool slow = tolerance > 0 && d.ratio <= 1.0 - tolerance;
    below += slow ? 1 : 0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "%6.2fx", d.ratio);
    report += spec.name + " " + d.what + " " + buf + (slow ? "  << REGRESSION\n" : "\n");
  }
  const bool gating = tolerance > 0 && same_host;
  report += spec.name + ": " + std::to_string(deltas.size()) + " ratios vs baseline, " +
            std::to_string(below) + " at or below 1 - tolerance; " +
            (gating ? "gating"
                    : !same_host ? "advisory (baseline host: " + std::to_string(base.host.nproc) +
                                       " x " + base.host.cpu + ")"
                                 : "advisory (set NVHALT_BENCH_TOLERANCE to gate)") +
            "\n";
  return gating ? below : 0;
}

std::string render(const SweepSpec& spec, const BenchFile& f) {
  const auto cell_value = [](double v) {
    char buf[32];
    if (v == std::floor(v) && std::fabs(v) < 1e15)
      std::snprintf(buf, sizeof buf, "%.0f", v);
    else
      std::snprintf(buf, sizeof buf, "%.4g", v);
    return std::string(buf);
  };
  std::string out = "## " + spec.name + ": " + spec.what + "\n\n" +
                    (f.scale.smoke ? "smoke" : "full") + " mode, keys " +
                    std::to_string(f.scale.keys) + ", " + std::to_string(f.scale.ms) + " ms, " +
                    std::to_string(f.scale.iters) + " iters, median of " +
                    std::to_string(f.scale.rounds) + " rounds; " + std::to_string(f.host.nproc) +
                    " x " + f.host.cpu + ", " + f.host.compiler + ", " + f.host.git + "\n\n|";
  if (f.cells.empty()) return out + " no cells |\n";
  const Dims& head = f.cells.front().dims;
  std::string rule = "|";
  for (const auto& d : head) out += " " + d.first + " |", rule += "---|";
  for (const MetricSpec& m : spec.metrics) out += " " + m.name + " |", rule += "---:|";
  out += "\n" + rule + "\n";
  for (const Cell& c : f.cells) {
    out += "|";
    for (const auto& d : c.dims) out += " " + d.second + " |";
    for (const MetricSpec& m : spec.metrics) {
      const auto it = c.metrics.find(m.name);
      out += " " + (it == c.metrics.end() ? std::string("–") : cell_value(it->second.med)) + " |";
    }
    out += "\n";
  }
  if (spec.ratio.dim.empty()) return out;

  // Ratio table: rows are the other dims, columns the non-reference values
  // of the ratio dim in first-appearance order.
  const Ratio& q = spec.ratio;
  const MetricSpec* metric = nullptr;
  for (const MetricSpec& m : spec.metrics)
    if (m.name == q.metric) metric = &m;
  const auto without = [&](const Dims& d) {
    Dims rest;
    for (const auto& kv : d)
      if (kv.first != q.dim) rest.push_back(kv);
    return rest;
  };
  std::vector<std::string> cols;
  std::vector<Dims> rows;
  for (const Cell& c : f.cells) {
    const std::string v = dim(c.dims, q.dim);
    if (v != q.ref && std::find(cols.begin(), cols.end(), v) == cols.end()) cols.push_back(v);
    if (std::find(rows.begin(), rows.end(), without(c.dims)) == rows.end())
      rows.push_back(without(c.dims));
  }
  const auto value = [&](const Dims& row, const std::string& v) {
    for (const Cell& c : f.cells)
      if (dim(c.dims, q.dim) == v && without(c.dims) == row && c.metrics.count(q.metric))
        return c.metrics.at(q.metric).med;
    return 0.0;
  };
  out += "\n" + q.metric + " vs " + q.dim + " = " + q.ref + " (>1 is better than " + q.ref +
         ")\n\n|";
  rule = "|";
  for (const auto& d : without(head)) out += " " + d.first + " |", rule += "---|";
  for (const std::string& c : cols) out += " " + c + " |", rule += "---:|";
  out += "\n" + rule + "\n";
  // Log-ratio sums per column: [""] over all rows, [v] over rows of group v.
  std::map<std::string, std::vector<std::pair<double, int>>> logs;
  const auto add = [&](const std::string& g, std::size_t i, double ratio) {
    auto& acc = logs[g];
    acc.resize(cols.size());
    acc[i].first += std::log(ratio);
    acc[i].second += 1;
  };
  for (const Dims& row : rows) {
    const double ref = value(row, q.ref);
    bool any = false;
    std::string line = "|";
    for (const auto& d : row) line += " " + d.second + " |";
    for (std::size_t i = 0; i < cols.size(); ++i) {
      const double v = value(row, cols[i]);
      if (ref <= 0 || v <= 0) {
        line += " – |";
        continue;
      }
      const double ratio = metric && metric->better == Better::kLower ? ref / v : v / ref;
      add("", i, ratio);
      if (!q.group.empty()) add(dim(row, q.group), i, ratio);
      char buf[32];
      std::snprintf(buf, sizeof buf, " %.2fx |", ratio);
      line += buf;
      any = true;
    }
    if (any) out += line + "\n";
  }
  const auto geomean_row = [&](const std::string& label, const std::string& g) {
    std::string line = "| **geomean " + label + "** |";
    for (std::size_t i = 1; i < without(head).size(); ++i) line += " |";
    auto& acc = logs[g];
    acc.resize(cols.size());
    for (const auto& [sum, n] : acc) {
      char buf[32];
      std::snprintf(buf, sizeof buf, " **%.2fx** |", n ? std::exp(sum / n) : 0.0);
      line += n ? buf : " – |";
    }
    return line + "\n";
  };
  for (const auto& [g, acc] : logs)
    if (!g.empty()) out += geomean_row(q.group + "=" + g, g);
  out += geomean_row("all", "");
  return out;
}

}  // namespace nvhalt::bench
