// The strict numeric parser behind every flag, scenario parameter and
// grammar field (util/parse_number.hpp), and the daemon / load-client
// flags that used to slip past the hand-rolled parsers: each bad value
// must now end in a clean exit 2 instead of wrapping, narrowing, being
// truncated or silently disabling a gate.

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "util/parse_number.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace megflood {
namespace {

TEST(ParseU64Strict, AcceptsWholeDecimalNumbers) {
  EXPECT_EQ(parse_u64_strict("0"), 0u);
  EXPECT_EQ(parse_u64_strict("42"), 42u);
  EXPECT_EQ(parse_u64_strict("18446744073709551615"), UINT64_MAX);
}

TEST(ParseU64Strict, RejectsSignsJunkAndOverflow) {
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "0x10", "1.5", "9x",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64_strict(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ParseDoubleStrict, AcceptsFiniteNumbers) {
  EXPECT_EQ(parse_double_strict("0.5"), 0.5);
  EXPECT_EQ(parse_double_strict("-2"), -2.0);
  EXPECT_EQ(parse_double_strict("1e-3"), 1e-3);
}

TEST(ParseDoubleStrict, RejectsNonFiniteAndJunk) {
  for (const char* bad : {"", "nan", "inf", "-inf", "0.9x", " 0.5", "0.5 ",
                          "+1", "1e400", "0x1p3"}) {
    EXPECT_FALSE(parse_double_strict(bad).has_value()) << "'" << bad << "'";
  }
}

#if defined(MEGFLOOD_SERVE_PATH) && defined(MEGFLOOD_LOAD_PATH) && \
    (defined(__unix__) || defined(__APPLE__))

// Runs `binary args...` with output discarded and returns its exit code,
// or -1 if it did not exit within the timeout (it is then killed): a
// daemon that accepted a bad flag would otherwise serve forever.
int exit_code_of(const char* binary, std::vector<std::string> args) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, 1);
      ::dup2(devnull, 2);
      ::close(devnull);
    }
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary));
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    ::execv(binary, argv.data());
    ::_exit(127);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  return -1;
}

std::string socket_flag() {
  return "--socket=" + testing::TempDir() + "numeric_flags.sock";
}

TEST(NumericFlags, ServeRejectsNegativeCountsWithExitTwo) {
  for (const char* bad : {"--max_queue=-1", "--workers=-1",
                          "--max_client_queue=-1", "--worker_memory_mb=-1"}) {
    EXPECT_EQ(exit_code_of(MEGFLOOD_SERVE_PATH, {socket_flag(), bad}), 2)
        << bad;
  }
}

TEST(NumericFlags, LoadRejectsBadRatioAndTimeoutWithExitTwo) {
  for (const char* bad :
       {"--min_hit_ratio=nan", "--min_hit_ratio=0.9x", "--min_hit_ratio=2",
        "--timeout_ms=2147483648", "--timeout_ms=4294967296",
        "--jobs=-1"}) {
    EXPECT_EQ(exit_code_of(MEGFLOOD_LOAD_PATH, {socket_flag(), bad}), 2)
        << bad;
  }
}

#endif

}  // namespace
}  // namespace megflood
