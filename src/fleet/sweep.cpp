#include "fleet/sweep.h"

#include <csignal>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "fleet/wire.h"
#include "support/expects.h"
#include "support/parse.h"

namespace pp::fleet {

namespace {

void write_all(int fd, const void* data, std::size_t size) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      // EINTR/EAGAIN are transient; everything else (notably EPIPE once the
      // reader died and SIGPIPE is ignored) is fatal and named precisely.
      ensure(errno == EINTR || errno == EAGAIN,
             std::string("fleet: pipe write failed: ") + std::strerror(errno));
      continue;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
}

template <typename T>
void pack(std::uint8_t*& p, T v) {
  std::memcpy(p, &v, sizeof(T));
  p += sizeof(T);
}

template <typename T>
T unpack(const std::uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

}  // namespace

void ignore_sigpipe() { std::signal(SIGPIPE, SIG_IGN); }

void encode_trial_record(const trial_record& record, std::uint8_t* out) {
  std::uint8_t* p = out;
  pack<std::uint64_t>(p, record.trial);
  pack<std::uint64_t>(p, record.result.steps);
  pack<std::uint64_t>(p, static_cast<std::uint64_t>(record.result.distinct_states_used));
  pack<std::int32_t>(p, static_cast<std::int32_t>(record.result.leader));
  pack<std::uint8_t>(p, record.result.stabilized ? 1 : 0);
}

trial_record decode_trial_record(const std::uint8_t* payload) {
  const std::uint8_t* p = payload;
  trial_record out;
  out.trial = unpack<std::uint64_t>(p);
  out.result.steps = unpack<std::uint64_t>(p);
  out.result.distinct_states_used =
      static_cast<std::size_t>(unpack<std::uint64_t>(p));
  out.result.leader = static_cast<node_id>(unpack<std::int32_t>(p));
  out.result.stabilized = unpack<std::uint8_t>(p) != 0;
  return out;
}

void write_trial_record(int fd, const trial_record& record) {
  std::uint8_t payload[kTrialRecordPayload];
  encode_trial_record(record, payload);
  std::uint8_t buf[wire::framed_size(kTrialRecordPayload)];
  wire::encode_frame(payload, kTrialRecordPayload, buf);
  write_all(fd, buf, sizeof(buf));
}

void write_manifest(const worker_manifest& manifest, const std::string& path) {
  expects(manifest.artifact_path.find('\n') == std::string::npos,
          "write_manifest: artifact path must not contain newlines");
  std::FILE* f = std::fopen(path.c_str(), "w");
  expects(f != nullptr, "write_manifest: cannot open " + path);
  std::fprintf(f, "ppfleet-manifest v1\n");
  std::fprintf(f, "artifact=%s\n", manifest.artifact_path.c_str());
  std::fprintf(f, "seed=%llu\n", static_cast<unsigned long long>(manifest.seed));
  std::fprintf(f, "trials=%llu\n", static_cast<unsigned long long>(manifest.trials));
  std::fprintf(f, "jobs=%d\n", manifest.jobs);
  std::fprintf(f, "max_steps=%llu\n",
               static_cast<unsigned long long>(manifest.max_steps));
  std::fprintf(f, "batch=%llu\n",
               static_cast<unsigned long long>(manifest.wellmixed_batch));
  std::fprintf(f, "scheduler=%s\n", to_string(manifest.scheduler));
  expects(std::fclose(f) == 0, "write_manifest: short write to " + path);
}

worker_manifest read_manifest(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  expects(f != nullptr, "read_manifest: cannot open " + path);
  worker_manifest m;
  char line[4096];
  bool saw_header = false;
  bool saw_artifact = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    std::string s(line);
    if (!s.empty() && s.back() == '\n') s.pop_back();
    if (s.empty()) continue;
    if (!saw_header) {
      if (s != "ppfleet-manifest v1") break;
      saw_header = true;
      continue;
    }
    const std::size_t eq = s.find('=');
    if (eq == std::string::npos) {
      saw_header = false;  // malformed line: reject below
      break;
    }
    const std::string key = s.substr(0, eq);
    const std::string value = s.substr(eq + 1);
    // Strict digits-only parse: manifests are hand-editable, so a signed
    // value like trials=-1 must be rejected, not silently wrapped to 2^64-1
    // by strtoull.
    std::uint64_t num = 0;
    const bool numeric = parse_u64(value.c_str(), num);
    if (key == "artifact") {
      m.artifact_path = value;
      saw_artifact = !value.empty();
    } else if (key == "seed" && numeric) {
      m.seed = num;
    } else if (key == "trials" && numeric && num >= 1 && num <= 1'000'000) {
      // Same bound the CLI enforces on --trials.
      m.trials = num;
    } else if (key == "jobs" && numeric && num >= 1 && num <= 100000) {
      m.jobs = static_cast<int>(num);
    } else if (key == "max_steps" && numeric) {
      m.max_steps = num;
    } else if (key == "batch" && numeric) {
      m.wellmixed_batch = num;
    } else if (key == "scheduler" && (value == "step" || value == "silent")) {
      // Absent in pre-silent manifests (defaults to step); a hand-edited
      // unknown value is rejected like any other malformed key below.
      m.scheduler =
          value == "silent" ? scheduler_kind::silent : scheduler_kind::step;
    } else {
      saw_header = false;  // unknown key or bad value: reject below
      break;
    }
  }
  std::fclose(f);
  expects(saw_header && saw_artifact,
          "read_manifest: " + path + " is not a valid fleet manifest");
  return m;
}

std::string self_exe_path(const char* argv0) {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (len > 0) return std::string(buf, static_cast<std::size_t>(len));
  return argv0 != nullptr ? std::string(argv0) : std::string();
}

}  // namespace pp::fleet
