// search_server — thin line-protocol front-end over serve::SearchServer.
//
// The serve core (src/serve/) is transport-agnostic; this binary wires it
// to two byte streams:
//
//   --mode=pipe   (default) speak the protocol on stdin/stdout — the
//                 zero-dependency transport a parent process drives
//                 through a pipe pair (examples/search_client.cpp
//                 --spawn does exactly that; so does the CI smoke test).
//   --mode=tcp    listen on 127.0.0.1:--port (default 7777), one thread
//                 per connection, all connections multiplexed onto one
//                 shared SearchServer (shared library cache, shared
//                 backends, one global pool that takes the sessions'
//                 query blocks in turn).
//
// Protocol (text lines; responses marked ←, asynchronous lines ⇠):
//
//   OPEN <library.omsx> [backend=NAME] [fdr=X] [seed=N] [block=N]
//        [max_in_flight=N] [admit=block|reject] [timeout_ms=N] [trace=N]
//     ← OK <session-id>            or  ERR <message>
//     fdr in (0, 1]; seed, trace in [0, 2^64); block in [1, 65536];
//     max_in_flight in [1, 1048576]; timeout_ms in [0, 86400000].
//     Anything else — a NaN, a sign, trailing bytes — is answered
//     "ERR <option> must be <range>, got '<value>'".
//   Q <session-id> <query-id> <precursor_mz> <charge> <mz:int,mz:int,...>
//     ⇠ (nothing on admission)
//     ← REJECT <session-id> <query-id>   only when admission sheds it
//     session-id in [0, 2^64); query-id in [0, 2^32); precursor_mz finite
//     and > 0; charge >= 1; every peak value finite. A malformed field is
//     answered "ERR <field> must be <range>, got '<value>'", a malformed
//     peak list "ERR bad peak list".
//   ⇠ PSM <session-id> <query-id> <peptide> <score> <mass-shift>
//     (%.17g — parses back to the exact double; may interleave anywhere)
//   CLOSE <session-id>
//     ⇠ accepted PSM lines, released as the stream's tail resolves
//       (closing bounds the stream by what was submitted — no stream
//       length is declared up front)
//     ← CLOSED <session-id> accepted=<n> searched=<n>
//   STATS
//     ← STATS <json>   one-line obs::MetricsRegistry snapshot
//       (SearchServer::metrics_snapshot().to_json()): serve.* counters
//       (queries/PSMs across all sessions, admission rejects/blocks),
//       engine.stage.* latency histograms with p50/p95/p99,
//       serve.first_psm_seconds / serve.open_seconds, backend.* gauges,
//       session count, cache and maintainer scrape gauges. Its keys do
//       not grow with the number of sessions opened.
//   QUIT
//     ← BYE   (pipe mode: the process exits; tcp: the connection closes)
//
// A line longer than 1 MiB is answered with "ERR line too long" and ends
// the conversation (pipe mode: the process exits; tcp: the connection
// closes).
//
// Observability overhead contract: metrics are block-granular (a handful
// of clock reads per ~64-query block); per-query span tracing is off
// unless OPEN sets trace=N (trace every Nth query), and while off every
// engine instrumentation site is a single branch that records, allocates
// and locks nothing.
//
// The pipeline configuration behind OPEN is the quickstart operating
// point (D=8192, 3-bit IDs, ±500 Da, 1% FDR) so a served session's PSM
// stream is directly comparable to `quickstart --print-psms`; the OPEN
// options override the knobs a tenant may vary.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/pipeline.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

/// The quickstart operating point; OPEN options layer on top.
oms::core::PipelineConfig base_config() {
  oms::core::PipelineConfig cfg;
  cfg.encoder.dim = 8192;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 256;
  cfg.encoder.id_precision = oms::hd::IdPrecision::k3Bit;
  cfg.oms_window_da = 500.0;
  cfg.fdr_threshold = 0.01;
  return cfg;
}

/// Longest command line accepted, terminator excluded. A Q line with
/// tens of thousands of peaks fits; a longer one is answered with
/// "ERR line too long" and the connection is closed.
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
/// Largest OPEN block=: the queries one search batch holds. A session's
/// memory is bounded by max_in_flight, which also caps the block.
constexpr std::uint64_t kMaxBlock = 65536;
/// Largest OPEN max_in_flight= (2^20): a session holds at most this many
/// admitted, unresolved spectra, the one bound on the memory a client's
/// stream occupies.
constexpr std::uint64_t kMaxInFlight = std::uint64_t{1} << 20;
/// Largest OPEN timeout_ms= (one day); a longer wait overflows the
/// condition-variable deadline arithmetic.
constexpr std::uint64_t kMaxTimeoutMs = 86'400'000;

/// Parses all of `text` as a number with std::from_chars (no leading space
/// or '+'); false on an empty value, trailing bytes or overflow.
template <typename T>
bool parse_all(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Parses all of `text` as an integer in [lo, hi] into `out`, which keeps
/// its value on failure.
template <typename T>
bool parse_count(const std::string& text, std::uint64_t lo, std::uint64_t hi,
                 T& out) {
  std::uint64_t v = 0;
  if (!parse_all(text, v) || v < lo || v > hi) return false;
  out = static_cast<T>(v);
  return true;
}

struct App {
  oms::serve::SearchServer server;
  explicit App(const oms::serve::SearchServerConfig& cfg) : server(cfg) {}
};

/// One protocol conversation on an (in, out) stream pair. Output lines
/// are serialized through out_mu because PSM lines fire from engine
/// threads while the command loop answers on the caller's thread.
class Conversation {
 public:
  Conversation(App& app, std::FILE* in, std::FILE* out)
      : app_(app), in_(in), out_(out) {}

  /// Runs until QUIT, EOF or an over-long line. Open sessions are closed
  /// (results dropped) on the way out.
  void run() {
    std::string line;
    while (true) {
      const Read r = read_line(line);
      if (r == Read::kEof) break;
      if (r == Read::kTooLong) {
        reply("ERR line too long");
        break;
      }
      while (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!dispatch(line.data())) break;  // QUIT
    }
    sessions_.clear();  // abandoned sessions wind down in ~Session
  }

 private:
  enum class Read { kLine, kEof, kTooLong };

  /// Reads one line without its '\n' into `line`, refusing to buffer more
  /// than kMaxLineBytes of it: a client cannot grow the server's memory
  /// without bound by never sending a newline. Only this thread reads in_.
  Read read_line(std::string& line) {
    line.clear();
    int c = 0;
    while ((c = getc_unlocked(in_)) != EOF) {
      if (c == '\n') return Read::kLine;
      if (line.size() == kMaxLineBytes) return Read::kTooLong;
      line.push_back(static_cast<char>(c));
    }
    return line.empty() ? Read::kEof : Read::kLine;
  }

  void reply(const std::string& s) {
    const std::lock_guard lock(out_mu_);
    std::fprintf(out_, "%s\n", s.c_str());
    std::fflush(out_);
  }

  bool dispatch(char* line) {
    // strtok_r, not strtok: in tcp mode every connection thread parses
    // concurrently, and strtok's hidden static cursor would be shared.
    std::vector<char*> tok;
    char* save = nullptr;
    for (char* t = strtok_r(line, " ", &save); t;
         t = strtok_r(nullptr, " ", &save)) {
      tok.push_back(t);
    }
    if (tok.empty()) return true;
    const std::string cmd = tok[0];
    try {
      if (cmd == "OPEN") return cmd_open(tok);
      if (cmd == "Q") return cmd_query(tok);
      if (cmd == "CLOSE") return cmd_close(tok);
      if (cmd == "STATS") return cmd_stats();
      if (cmd == "QUIT") {
        reply("BYE");
        return false;
      }
      reply("ERR unknown command: " + cmd);
    } catch (const std::exception& e) {
      reply(std::string("ERR ") + e.what());
    }
    return true;
  }

  /// Replies the ERR line for a field that failed strict parsing.
  void reject_field(const std::string& field, const char* accepts,
                    const std::string& value) {
    reply("ERR " + field + " must be " + accepts + ", got '" + value + "'");
  }

  bool cmd_open(const std::vector<char*>& tok) {
    if (tok.size() < 2) {
      reply("ERR OPEN needs a library path");
      return true;
    }
    oms::serve::SessionConfig scfg;
    scfg.pipeline = base_config();
    for (std::size_t i = 2; i < tok.size(); ++i) {
      const std::string opt = tok[i];
      const auto eq = opt.find('=');
      if (eq == std::string::npos) {
        reply("ERR OPEN option without value: " + opt);
        return true;
      }
      const std::string key = opt.substr(0, eq);
      const std::string val = opt.substr(eq + 1);
      // Numeric options parse strictly: the whole value, in range, or an
      // ERR line naming the option and what it accepts.
      const char* accepts = nullptr;
      if (key == "backend") {
        scfg.pipeline.backend_name = val;
      } else if (key == "fdr") {
        double v = 0.0;
        if (parse_all(val, v) && v > 0.0 && v <= 1.0) {
          scfg.pipeline.fdr_threshold = v;
        } else {
          accepts = "a number in (0, 1]";
        }
      } else if (key == "seed") {
        if (!parse_count(val, 0, kU64Max, scfg.pipeline.seed)) {
          accepts = "an integer in [0, 2^64)";
        }
      } else if (key == "block") {
        if (!parse_count(val, 1, kMaxBlock, scfg.block_size)) {
          accepts = "an integer in [1, 65536]";
        }
      } else if (key == "max_in_flight") {
        if (!parse_count(val, 1, kMaxInFlight, scfg.max_in_flight)) {
          accepts = "an integer in [1, 1048576]";
        }
      } else if (key == "admit") {
        if (val == "block") {
          scfg.admit = oms::serve::AdmitPolicy::Block;
        } else if (val == "reject") {
          scfg.admit = oms::serve::AdmitPolicy::Reject;
        } else {
          accepts = "block|reject";
        }
      } else if (key == "timeout_ms") {
        std::uint64_t ms = 0;
        if (parse_count(val, 0, kMaxTimeoutMs, ms)) {
          scfg.admit_timeout = std::chrono::milliseconds(ms);
        } else {
          accepts = "an integer in [0, 86400000]";
        }
      } else if (key == "trace") {
        if (!parse_count(val, 0, kU64Max, scfg.trace_sample_every)) {
          accepts = "an integer in [0, 2^64)";
        }
      } else {
        reply("ERR unknown OPEN option: " + key);
        return true;
      }
      if (accepts != nullptr) {
        reject_field(key, accepts, val);
        return true;
      }
    }
    // The session id only exists after open() returns, but on_accept is
    // part of the config — route PSM lines through a tag filled in below
    // (no PSM can fire before the first Q, which follows the OK reply).
    auto tag = std::make_shared<std::uint64_t>(0);
    scfg.on_accept = [this, tag](const oms::core::Psm& p) {
      char buf[320];
      std::snprintf(buf, sizeof buf, "PSM %llu %u %s %.17g %.17g",
                    static_cast<unsigned long long>(*tag), p.query_id,
                    p.peptide.c_str(), p.score, p.mass_shift);
      reply(buf);
    };
    auto session = app_.server.open(tok[1], std::move(scfg));
    *tag = session->id();
    sessions_[session->id()] = std::move(session);
    reply("OK " + std::to_string(*tag));
    return true;
  }

  /// The open session `text` names, or nullptr after replying ERR (a
  /// malformed id, or no such session).
  oms::serve::Session* find(const std::string& text) {
    std::uint64_t sid = 0;
    if (!parse_count(text, 0, kU64Max, sid)) {
      reject_field("session", "an integer in [0, 2^64)", text);
      return nullptr;
    }
    auto it = sessions_.find(sid);
    if (it == sessions_.end()) {
      reply("ERR no such session: " + text);
      return nullptr;
    }
    return it->second.get();
  }

  bool cmd_query(const std::vector<char*>& tok) {
    if (tok.size() != 6) {
      reply("ERR Q <session> <qid> <mz> <charge> <peaks>");
      return true;
    }
    oms::serve::Session* s = find(tok[1]);
    if (s == nullptr) return true;
    oms::ms::Spectrum q;
    if (!parse_count(tok[2], 0, std::numeric_limits<std::uint32_t>::max(),
                     q.id)) {
      reject_field("qid", "an integer in [0, 2^32)", tok[2]);
      return true;
    }
    if (!parse_all(tok[3], q.precursor_mz) || !std::isfinite(q.precursor_mz) ||
        q.precursor_mz <= 0.0) {
      reject_field("mz", "a finite number > 0", tok[3]);
      return true;
    }
    if (!parse_count(tok[4], 1, std::numeric_limits<int>::max(),
                     q.precursor_charge)) {
      reject_field("charge", "an integer >= 1", tok[4]);
      return true;
    }
    for (const char* p = tok[5]; *p != '\0';) {
      char* end = nullptr;
      const double mz = std::strtod(p, &end);
      if (end == p || *end != ':') {
        reply("ERR bad peak list");
        return true;
      }
      p = end + 1;
      const auto intensity = static_cast<float>(std::strtod(p, &end));
      if (end == p || !std::isfinite(mz) || !std::isfinite(intensity)) {
        reply("ERR bad peak list");
        return true;
      }
      q.peaks.push_back({mz, intensity});
      p = (*end == ',') ? end + 1 : end;
    }
    const std::uint32_t qid = q.id;
    if (!s->submit(std::move(q))) {
      reply("REJECT " + std::to_string(s->id()) + " " + std::to_string(qid));
    }
    return true;
  }

  bool cmd_close(const std::vector<char*>& tok) {
    if (tok.size() != 2) {
      reply("ERR CLOSE <session>");
      return true;
    }
    oms::serve::Session* s = find(tok[1]);
    if (s == nullptr) return true;
    // close() drains: the remaining accepted PSMs flush through on_accept
    // (so their lines precede CLOSED), then the summary confirms.
    const oms::core::PipelineResult result = s->close();
    const std::uint64_t sid = s->id();
    sessions_.erase(sid);
    reply("CLOSED " + std::to_string(sid) +
          " accepted=" + std::to_string(result.accepted.size()) +
          " searched=" + std::to_string(result.queries_searched));
    return true;
  }

  bool cmd_stats() {
    // The whole registry as one JSON line: per-stage latency histograms
    // (p50/p95/p99 precomputed), serve counters, backend gauges,
    // session/cache/maintainer scrape — Snapshot::to_json() never
    // emits a newline, so the line protocol ships it verbatim.
    reply("STATS " + app_.server.metrics_snapshot().to_json());
    return true;
  }

  App& app_;
  std::FILE* in_;
  std::FILE* out_;
  std::mutex out_mu_;
  std::map<std::uint64_t, std::shared_ptr<oms::serve::Session>> sessions_;
};

int run_tcp(App& app, int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::perror("socket");
    return 1;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local tool, local bind
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      listen(fd, 16) < 0) {
    std::perror("bind/listen");
    close(fd);
    return 1;
  }
  std::fprintf(stderr, "search_server: listening on 127.0.0.1:%d\n", port);
  while (true) {
    const int conn = accept(fd, nullptr, nullptr);
    if (conn < 0) break;
    std::thread([&app, conn] {
      std::FILE* in = fdopen(conn, "r");
      std::FILE* out = fdopen(dup(conn), "w");
      if (in != nullptr && out != nullptr) {
        Conversation(app, in, out).run();
      }
      if (in != nullptr) std::fclose(in);
      if (out != nullptr) std::fclose(out);
    }).detach();
  }
  close(fd);
  return 0;
}

}  // namespace

void print_help() {
  std::puts(
      "search_server — line-protocol front-end over serve::SearchServer\n"
      "\n"
      "  search_server [--mode=pipe|tcp] [--port=7777]\n"
      "                [--cache-capacity=4] [--max-sessions=64]\n"
      "\n"
      "Protocol (one command per line):\n"
      "  OPEN <library.omsx> [backend=NAME] [fdr=X] [seed=N] [block=N]\n"
      "       [max_in_flight=N] [admit=block|reject] [timeout_ms=N]\n"
      "       [trace=N]\n"
      "    -> OK <session-id> | ERR <message>\n"
      "    fdr in (0, 1]; seed and trace (every Nth query traced, 0 = off)\n"
      "    in [0, 2^64); block in [1, 65536]; max_in_flight in\n"
      "    [1, 1048576]; timeout_ms in [0, 86400000]. A malformed or\n"
      "    out-of-range value gets ERR <option> must be <range>,\n"
      "    got '<value>'.\n"
      "  Q <session-id> <query-id> <precursor_mz> <charge> <mz:int,...>\n"
      "    -> REJECT <sid> <qid> only when admission sheds the query\n"
      "    query-id in [0, 2^32); precursor_mz finite and > 0; charge >= 1;\n"
      "    peak values finite. A malformed field gets ERR <field> must be\n"
      "    <range>, got '<value>'; a malformed peak list ERR bad peak list.\n"
      "  CLOSE <session-id>\n"
      "    -> accepted PSMs, released as the stream's tail resolves\n"
      "       (close bounds the stream by what was submitted; no stream\n"
      "       length is declared up front), as\n"
      "       PSM <sid> <qid> <peptide> <score> <mass-shift>\n"
      "       then CLOSED <sid> accepted=N searched=N\n"
      "  STATS\n"
      "    -> STATS <json> — one-line obs::MetricsRegistry snapshot:\n"
      "       serve.* counters (queries_total, psms_total, admission\n"
      "       rejects/blocks), engine.stage.* latency histograms with\n"
      "       p50/p95/p99, serve.first_psm_seconds and serve.open_seconds\n"
      "       histograms, backend.* gauges, session counts, cache\n"
      "       hit/miss/eviction/donation and maintainer gauges. The key\n"
      "       set does not grow with the number of sessions opened.\n"
      "  QUIT\n"
      "    -> BYE\n"
      "  A line over 1 MiB gets ERR line too long and closes the\n"
      "  connection.\n"
      "\n"
      "Observability overhead contract:\n"
      "  Metrics are always on and block-granular (a handful of clock\n"
      "  reads per ~64-query search block). Per-query span tracing is per\n"
      "  session and OFF by default; while off, every engine trace site\n"
      "  is a single branch. OPEN trace=N samples every Nth query of that\n"
      "  stream (~two clock reads per stage for sampled queries).");
}

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);
  if (cli.has("help")) {
    print_help();
    return 0;
  }
  const std::string mode = cli.get("mode", std::string("pipe"));

  oms::serve::SearchServerConfig cfg;
  cfg.cache.capacity =
      static_cast<std::size_t>(cli.get("cache-capacity", 4L));
  cfg.max_sessions = static_cast<std::size_t>(cli.get("max-sessions", 64L));
  App app(cfg);

  if (mode == "pipe") {
    Conversation(app, stdin, stdout).run();
    return 0;
  }
  if (mode == "tcp") {
    return run_tcp(app, static_cast<int>(cli.get("port", 7777L)));
  }
  std::fprintf(stderr, "search_server: unknown --mode=%s (pipe|tcp)\n",
               mode.c_str());
  return 2;
}
