// search_client — drives examples/search_server over a pipe or TCP and
// checks the multi-tenant isolation contract end to end.
//
//   --spawn="./build/examples/search_server"   fork/exec the server and
//                                              speak the protocol over a
//                                              pipe pair (default mode)
//   --connect=PORT                             TCP to 127.0.0.1:PORT
//   --library=FILE       the .omsx artifact every session OPENs (required;
//                        build one with quickstart --index-out=FILE)
//   --sessions=N         concurrent sessions to open (default 1)
//   --backend=NAME       forwarded to OPEN (default ideal-hd)
//   --stats-out=FILE     issue STATS before QUIT, write the JSON snapshot
//                        to FILE, and cross-check the server's
//                        serve.queries_total counter against the queries
//                        this client actually sent (exit non-zero on
//                        mismatch) — the CI smoke step's accounting gate
//
// The client generates the quickstart workload (seed 7, 2000 references,
// 300 queries), opens N sessions on the same library, interleaves the
// same query stream round-robin across them, closes each, and then:
//
//   * verifies every session produced the identical PSM set (isolation:
//     tenants sharing cache/backends/pool must not perturb each
//     other), exiting non-zero on any mismatch;
//   * prints session 1's PSMs as sorted `PSM <qid> <peptide> <score>
//     <shift>` lines — byte-comparable to `quickstart --print-psms`
//     (grep ^PSM and diff; the CI smoke step does).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <condition_variable>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ms/synthetic.hpp"
#include "util/cli.hpp"

namespace {

struct Transport {
  std::FILE* in = nullptr;   ///< Server → client.
  std::FILE* out = nullptr;  ///< Client → server.
  pid_t child = -1;
};

Transport spawn_server(const std::string& cmd) {
  int to_server[2];
  int from_server[2];
  if (pipe(to_server) != 0 || pipe(from_server) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {  // child: wire the pipe ends to stdio, exec the server
    dup2(to_server[0], STDIN_FILENO);
    dup2(from_server[1], STDOUT_FILENO);
    close(to_server[0]);
    close(to_server[1]);
    close(from_server[0]);
    close(from_server[1]);
    execl("/bin/sh", "sh", "-c", cmd.c_str(), static_cast<char*>(nullptr));
    std::perror("execl");
    _exit(127);
  }
  close(to_server[0]);
  close(from_server[1]);
  Transport t;
  t.in = fdopen(from_server[0], "r");
  t.out = fdopen(to_server[1], "w");
  t.child = pid;
  return t;
}

Transport connect_tcp(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (fd < 0 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    std::perror("connect");
    std::exit(1);
  }
  Transport t;
  t.in = fdopen(fd, "r");
  t.out = fdopen(dup(fd), "w");
  return t;
}

/// Reads server lines on a dedicated thread (PSMs stream asynchronously —
/// a client that only reads between submissions would eventually deadlock
/// against a full pipe). PSM lines are collected per session; everything
/// else is a response the main thread awaits in order.
class Reader {
 public:
  explicit Reader(std::FILE* in)
      : thread_([this, in] { loop(in); }) {}
  ~Reader() { thread_.join(); }

  std::string await_response() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return !responses_.empty() || eof_; });
    if (responses_.empty()) return "";  // EOF: server died
    std::string r = std::move(responses_.front());
    responses_.pop_front();
    return r;
  }

  std::map<std::string, std::vector<std::string>> psms() {
    const std::lock_guard lock(mu_);
    return psms_;
  }

 private:
  void loop(std::FILE* in) {
    char* line = nullptr;
    std::size_t cap = 0;
    ssize_t len = 0;
    while ((len = getline(&line, &cap, in)) > 0) {
      while (len > 0 && (line[len - 1] == '\n' || line[len - 1] == '\r')) {
        line[--len] = '\0';
      }
      if (std::strncmp(line, "PSM ", 4) == 0) {
        // "PSM <sid> <rest...>" → keyed by sid, stored as "PSM <rest>" so
        // the per-session sets are directly comparable to each other and
        // to quickstart --print-psms.
        char* rest = line + 4;
        char* space = std::strchr(rest, ' ');
        if (space != nullptr) {
          const std::string sid(rest, static_cast<std::size_t>(space - rest));
          const std::lock_guard lock(mu_);
          psms_[sid].push_back(std::string("PSM ") + (space + 1));
        }
        continue;
      }
      {
        const std::lock_guard lock(mu_);
        responses_.emplace_back(line);
      }
      cv_.notify_all();
    }
    std::free(line);
    {
      const std::lock_guard lock(mu_);
      eof_ = true;
    }
    cv_.notify_all();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> responses_;
  std::map<std::string, std::vector<std::string>> psms_;
  bool eof_ = false;
  std::thread thread_;
};

void send_line(std::FILE* out, const std::string& line) {
  std::fprintf(out, "%s\n", line.c_str());
  std::fflush(out);
}

std::string format_query(const std::string& sid, const oms::ms::Spectrum& q) {
  // %.17g round-trips doubles exactly; %.9g round-trips float intensity.
  char head[128];
  std::snprintf(head, sizeof head, "Q %s %u %.17g %d ", sid.c_str(), q.id,
                q.precursor_mz, q.precursor_charge);
  std::string line = head;
  char peak[64];
  for (std::size_t i = 0; i < q.peaks.size(); ++i) {
    std::snprintf(peak, sizeof peak, "%s%.17g:%.9g", i == 0 ? "" : ",",
                  q.peaks[i].mz, static_cast<double>(q.peaks[i].intensity));
    line += peak;
  }
  return line;
}

}  // namespace

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);
  const std::string library = cli.get("library", std::string());
  const std::string spawn = cli.get("spawn", std::string());
  const long port = cli.get("connect", 0L);
  const auto n_sessions = static_cast<std::size_t>(cli.get("sessions", 1L));
  const std::string backend = cli.get("backend", std::string("ideal-hd"));
  const std::string stats_out = cli.get("stats-out", std::string());
  if (library.empty() || (spawn.empty() && port == 0)) {
    std::fprintf(stderr,
                 "usage: search_client --library=FILE "
                 "(--spawn=\"server cmd\" | --connect=PORT) "
                 "[--sessions=N] [--backend=NAME]\n");
    return 2;
  }

  Transport t = port != 0 ? connect_tcp(static_cast<int>(port))
                          : spawn_server(spawn);
  int exit_code = 0;
  {
    Reader reader(t.in);

    // The quickstart workload: same generator, same seed — so the PSM
    // stream must match quickstart --print-psms byte for byte.
    oms::ms::WorkloadConfig data_cfg;
    data_cfg.reference_count = 2000;
    data_cfg.query_count = 300;
    data_cfg.seed = 7;
    const oms::ms::Workload workload = oms::ms::generate_workload(data_cfg);

    std::vector<std::string> sids;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      send_line(t.out, "OPEN " + library + " backend=" + backend);
      const std::string resp = reader.await_response();
      if (resp.rfind("OK ", 0) != 0) {
        std::fprintf(stderr, "search_client: OPEN failed: %s\n",
                     resp.c_str());
        send_line(t.out, "QUIT");
        (void)reader.await_response();
        if (t.child > 0) waitpid(t.child, nullptr, 0);
        return 1;
      }
      sids.push_back(resp.substr(3));
    }
    std::fprintf(stderr, "search_client: %zu session(s) open on %s\n",
                 sids.size(), library.c_str());

    // Interleave the same stream across every session, round-robin by
    // query — the adversarial schedule for isolation.
    for (const oms::ms::Spectrum& q : workload.queries) {
      for (const std::string& sid : sids) {
        send_line(t.out, format_query(sid, q));
      }
    }
    for (const std::string& sid : sids) {
      send_line(t.out, "CLOSE " + sid);
      const std::string resp = reader.await_response();
      if (resp.rfind("CLOSED ", 0) != 0) {
        std::fprintf(stderr, "search_client: CLOSE failed: %s\n",
                     resp.c_str());
        exit_code = 1;
      } else {
        std::fprintf(stderr, "search_client: %s\n", resp.c_str());
      }
    }
    if (!stats_out.empty()) {
      // Snapshot after every CLOSE so the counters are quiescent, then
      // hold the server to its own accounting: serve.queries_total must
      // equal what this client submitted across all sessions.
      send_line(t.out, "STATS");
      const std::string resp = reader.await_response();
      if (resp.rfind("STATS ", 0) != 0) {
        std::fprintf(stderr, "search_client: STATS failed: %s\n",
                     resp.c_str());
        exit_code = 1;
      } else {
        const std::string json = resp.substr(6);
        if (std::FILE* f = std::fopen(stats_out.c_str(), "w")) {
          std::fprintf(f, "%s\n", json.c_str());
          std::fclose(f);
        } else {
          std::perror("search_client: --stats-out open");
          exit_code = 1;
        }
        const std::string key = "\"serve.queries_total\":";
        const auto pos = json.find(key);
        const unsigned long long reported =
            pos == std::string::npos
                ? 0ULL
                : std::strtoull(json.c_str() + pos + key.size(), nullptr, 10);
        const unsigned long long sent =
            static_cast<unsigned long long>(workload.queries.size()) *
            sids.size();
        if (pos == std::string::npos || reported != sent) {
          std::fprintf(stderr,
                       "search_client: STATS accounting mismatch — "
                       "serve.queries_total=%llu, client sent %llu\n",
                       reported, sent);
          exit_code = 1;
        } else {
          std::fprintf(stderr,
                       "search_client: STATS ok (serve.queries_total=%llu, "
                       "snapshot -> %s)\n",
                       reported, stats_out.c_str());
        }
      }
    }
    send_line(t.out, "QUIT");
    (void)reader.await_response();
    std::fclose(t.out);
    t.out = nullptr;
    // Reader joins at scope exit once the server closes its end.

    auto psms = reader.psms();
    std::vector<std::string> reference;
    bool first = true;
    for (const std::string& sid : sids) {
      auto lines = psms[sid];  // may be empty if nothing passed the filter
      std::sort(lines.begin(), lines.end());
      if (first) {
        reference = lines;
        first = false;
      } else if (lines != reference) {
        std::fprintf(stderr,
                     "search_client: session %s PSM set diverges from "
                     "session %s (%zu vs %zu lines) — isolation violated\n",
                     sid.c_str(), sids.front().c_str(), lines.size(),
                     reference.size());
        exit_code = 1;
      }
    }
    if (exit_code == 0 && sids.size() > 1) {
      std::fprintf(stderr,
                   "search_client: all %zu sessions agree (%zu PSMs)\n",
                   sids.size(), reference.size());
    }
    for (const std::string& l : reference) std::printf("%s\n", l.c_str());
  }
  if (t.in != nullptr) std::fclose(t.in);
  if (t.child > 0) waitpid(t.child, nullptr, 0);
  return exit_code;
}
