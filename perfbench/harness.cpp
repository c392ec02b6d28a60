#include "harness.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

int Tracer::open(const char* name, std::uint64_t trial, int parent,
                 Clock::time_point start) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_s = seconds_between(origin_, start);
  span.parent = parent;
  span.trial = trial;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int id, Clock::time_point end) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_s = seconds_between(origin_, end);
}

void Tracer::absorb(const std::vector<Span>& spans) {
  for (const Span& span : spans) {
    trial_ids_ = std::max(trial_ids_, span.trial);
    if (enabled_) spans_.push_back(span);
  }
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [";
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "%s\n  {\"name\": \"%s\", \"start_s\": %.9f, "
                  "\"end_s\": %.9f, \"parent\": %d, \"trial\": %llu}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_s, s.end_s,
                  s.parent, static_cast<unsigned long long>(s.trial));
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

CpuTimes cpu_times() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(usage.ru_utime), secs(usage.ru_stime)};
}

double child_peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_CHILDREN, &usage);
  return static_cast<double>(usage.ru_maxrss);
}

double current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

const Pins::Trial* Pins::find(const std::string& workload, std::uint64_t seed,
                              const std::string& label) const {
  for (const std::string& key :
       {workload + " " + std::to_string(seed) + " " + label,
        workload + " * " + label}) {
    const auto it = trials.find(key);
    if (it != trials.end()) return &it->second;
  }
  return nullptr;
}

// Line formats ('#' starts a comment):
//   trial <workload> <seed|*> <label> <packets> <bytes> <fnv1a-hex> [<hz>]
//   fundamental <workload> <label> <hz> <relative-tolerance>
Pins load_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read pin file " + path);
  Pins pins;
  std::string line;
  int number = 0;
  while (std::getline(in, line)) {
    ++number;
    std::istringstream fields(line.substr(0, line.find('#')));
    std::string kind;
    if (!(fields >> kind)) continue;
    std::string workload, seed, label, fnv;
    bool ok = false;
    if (kind == "trial") {
      Pins::Trial pin;
      ok = static_cast<bool>(fields >> workload >> seed >> label >>
                             pin.digest.packet_count >>
                             pin.digest.total_bytes >> fnv);
      if (ok) {
        pin.digest.fnv1a = std::stoull(fnv, nullptr, 16);
        fields >> pin.fundamental_hz;
        pins.trials[workload + " " + seed + " " + label] = pin;
      }
    } else if (kind == "fundamental") {
      double hz = 0.0, tolerance = 0.0;
      ok = static_cast<bool>(fields >> workload >> label >> hz >> tolerance);
      if (ok) pins.fundamentals[workload + " " + label] = {hz, tolerance};
    }
    if (!ok) {
      throw std::runtime_error(path + ":" + std::to_string(number) +
                               ": malformed pin line");
    }
  }
  return pins;
}

namespace {

// A pass crosses the pipe as text, one record per line:
//   pass <wall_s> <setup_s> <records> <sim_s>
//   trial <label> <packets> <bytes> <fnv1a> <events> <records> <retx>
//         <windows> <audit_ok> <fundamental_hz> [<error to end of line>]
//   layer <name> <value>
//   span <name> <start_s> <end_s> <parent> <trial>
// Doubles are printed with 17 significant digits, so they round-trip.
std::string encode(const PassSample& pass, const std::vector<Span>& spans) {
  std::ostringstream out;
  out.precision(17);
  out << "pass " << pass.wall_s << ' ' << pass.setup_s << ' ' << pass.records
      << ' ' << pass.sim_s << '\n';
  for (const TrialCheck& t : pass.trials) {
    std::string error = t.error;
    std::replace(error.begin(), error.end(), '\n', ' ');
    out << "trial " << t.label << ' ' << t.digest.packet_count << ' '
        << t.digest.total_bytes << ' ' << t.digest.fnv1a << ' ' << t.events
        << ' ' << t.records << ' ' << t.tcp_retransmissions << ' '
        << t.pdes_windows << ' ' << t.audit_ok << ' ' << t.fundamental_hz
        << ' ' << error << '\n';
  }
  for (const auto& [name, value] : pass.layer) {
    out << "layer " << name << ' ' << value << '\n';
  }
  for (const Span& span : spans) {
    out << "span " << span.name << ' ' << span.start_s << ' ' << span.end_s
        << ' ' << span.parent << ' ' << span.trial << '\n';
  }
  return out.str();
}

bool decode(const std::string& text, PassSample& pass,
            std::vector<Span>& spans) {
  std::istringstream in(text);
  std::string line;
  bool header = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string kind;
    fields >> kind;
    bool ok = false;
    if (kind == "pass") {
      ok = header = static_cast<bool>(fields >> pass.wall_s >> pass.setup_s >>
                                      pass.records >> pass.sim_s);
    } else if (kind == "trial") {
      TrialCheck t;
      ok = static_cast<bool>(
          fields >> t.label >> t.digest.packet_count >> t.digest.total_bytes >>
          t.digest.fnv1a >> t.events >> t.records >> t.tcp_retransmissions >>
          t.pdes_windows >> t.audit_ok >> t.fundamental_hz);
      std::getline(fields >> std::ws, t.error);
      pass.trials.push_back(std::move(t));
    } else if (kind == "layer") {
      std::string name;
      double value = 0.0;
      ok = static_cast<bool>(fields >> name >> value);
      pass.layer[name] = value;
    } else if (kind == "span") {
      Span span;
      ok = static_cast<bool>(fields >> span.name >> span.start_s >>
                             span.end_s >> span.parent >> span.trial);
      spans.push_back(std::move(span));
    }
    if (!ok) return false;
  }
  return header;
}

bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = write(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

[[nodiscard]] double heap_in_use_kb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks) / 1024.0;
}

/// Body of the forked child: run the pass, ship it, never return.
[[noreturn]] void pass_child(int fd, const WorkloadSpec& spec,
                             std::uint64_t seed, Tracer& tracer,
                             bool traced) {
  int status = 0;
  try {
    const std::size_t first_span = tracer.spans().size();
    const double heap_before_kb = heap_in_use_kb();
    PassSample pass = run_pass(spec, seed, tracer, traced);
    pass.layer["apps.heap_retained_kb"] = heap_in_use_kb() - heap_before_kb;
    const std::vector<Span> spans(
        tracer.spans().begin() + static_cast<std::ptrdiff_t>(first_span),
        tracer.spans().end());
    if (!write_all(fd, encode(pass, spans))) status = 1;
  } catch (const std::exception& failure) {
    std::fprintf(stderr, "perfbench pass: %s\n", failure.what());
    status = 1;
  }
  close(fd);
  _exit(status);
}

}  // namespace

PassSample run_pass_isolated(const WorkloadSpec& spec, std::uint64_t seed,
                             Tracer& tracer, bool traced) {
  const auto failed = [](const std::string& why) {
    PassSample pass;
    TrialCheck check;
    check.label = "pass";
    check.error = why;
    pass.trials.push_back(std::move(check));
    return pass;
  };
  int fds[2];
  if (pipe(fds) != 0) return failed("pipe() failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return failed("fork() failed");
  }
  if (pid == 0) {
    close(fds[0]);
    pass_child(fds[1], spec, seed, tracer, traced);
  }
  close(fds[1]);
  std::string text;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    return failed("pass process killed by signal " +
                  std::to_string(WTERMSIG(status)));
  }
  PassSample pass;
  std::vector<Span> spans;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      !decode(text, pass, spans)) {
    return failed("pass process failed");
  }
  tracer.absorb(spans);
  return pass;
}

}  // namespace perfbench
