// Regression tests for popsim_cli's exit-code contract: every invalid
// invocation must exit nonzero (CI's fleet-determinism and artifact gates
// pipe the binary and rely on failures being loud), and valid fleet
// invocations must reproduce the serial stdout byte for byte.
//
// These tests exec the real binary (path injected by CMake as
// PP_POPSIM_CLI); they are skipped when the examples are not built.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace {

#ifdef PP_POPSIM_CLI

// Runs `popsim <args>`, returning {exit code, stdout}.  stderr is routed to
// /dev/null: these tests assert *codes*, the messages are for humans.
struct cli_result {
  int code = -1;
  std::string out;
};

cli_result run_cli(const std::string& args) {
  const std::string command =
      std::string(PP_POPSIM_CLI) + " " + args + " 2>/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  cli_result r;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.out.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  r.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

// As run_cli, but captures *stderr* (stdout goes to /dev/null): for asserting
// on the supervisor's logger output, e.g. the journal replay summary.
cli_result run_cli_stderr(const std::string& args) {
  const std::string command =
      std::string(PP_POPSIM_CLI) + " " + args + " 2>&1 >/dev/null";
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  cli_result r;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    r.out.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  r.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

TEST(CliExitCodes, InvalidInvocationsExitNonzero) {
  // Every row is an invalid invocation; a zero exit on any of them would
  // break the CI steps that chain the binary with `&&` and `diff`.
  const char* invalid[] = {
      "",                                        // no arguments
      "clique",                                  // missing n and protocol
      "badfamily 100 fast",                      // unknown family
      "clique 100 badproto",                     // unknown protocol
      "clique 1 fast",                           // n below 2
      "clique 10x fast",                         // trailing garbage in n
      "clique 100 fast --bogus",                 // unknown flag
      "clique 100 fast --trials",                // flag missing its value
      "clique 100 fast --trials 0",              // out-of-range trials
      "clique 100 fast --trials 1e3",            // non-integer trials
      "clique 100 fast --seed -1",               // negative seed
      "clique 100 fast --engine warp",           // unknown engine
      "clique 100 fast --order sideways",        // unknown order
      "clique 100 fast --pack 12",               // unsupported width
      "clique 100 fast --jobs 0",                // out-of-range jobs
      "clique 100 fast --jobs 257",              // out-of-range jobs
      "clique 100 id --jobs 2",                  // fleet needs the engine
      "clique 100 id --save-artifact /tmp/x",    // artifacts need the engine
      "clique 100 id --order bfs",               // tuning needs the engine
      "cycle 100 fast --engine wellmixed",       // wellmixed needs clique
      "clique 100 star --engine wellmixed",      // no multiset star engine
      "clique 100 star --pack 64",               // unsupported width
      "clique 100 six --engine wellmixed --order rcm",  // tuning vs multiset
      "clique 100 fast --load-artifact /nonexistent",   // load + positionals
      "--load-artifact /nonexistent/artifact.ppaf",     // unreadable artifact
      "--trials 5",                              // flag mode without artifact
      "--load-artifact /dev/null",               // not a PPAF file
      "--worker",                                // missing manifest + index
      "--worker /nonexistent/manifest 0 0 1",    // unreadable manifest
      "--worker /dev/null 0 0 1",                // not a manifest
      "--worker /dev/null 0",                    // no trial range
      "--worker /dev/null 0 1",                  // base without count
      "clique 100 fast --journal",               // flag missing its value
      "clique 100 fast --resume",                // --resume without --journal
      "clique 100 id --journal /tmp/x.ppaj",     // journal needs the engine
      "clique 100 fast --retries -1",            // negative retry budget
      "clique 100 fast --retries 1001",          // out-of-range retry budget
      "clique 100 fast --worker-timeout-ms 0",   // zero timeout (use no flag)
      "clique 100 fast --worker-timeout-ms 1e3", // non-integer timeout
      "clique 100 fast --inject-fault",          // flag missing its value
      "clique 100 fast --inject-fault vanish:w0",       // unknown fault kind
      "clique 100 fast --inject-fault exit:0",          // slot without w prefix
      "clique 100 fast --inject-fault exit:w0:after",   // after without value
      "clique 100 fast --inject-fault exit:w0,",        // trailing comma
      "clique 100 fast --jobs 2 --inject-fault exit:w5",  // slot beyond fleet
      "clique 100 fast --metrics",               // flag missing its value
      "clique 100 fast --trace",                 // flag missing its value
      "clique 100 id --metrics /tmp/m.json",     // metrics need the engine
      "clique 100 id --trace /tmp/t.json",       // trace needs the engine
      "clique 100 fast --probe-stride 64",       // stride without a recorder
      "clique 100 fast --probe-stride 0 --metrics /tmp/m.json",  // zero stride
      "clique 100 fast --probe-stride 1e3 --metrics /tmp/m.json",  // non-integer
      "clique 100 fast --log-level",             // flag missing its value
      "clique 100 fast --log-level chatty",      // unknown level
      "clique 100 fast --log-level INFO",        // case-sensitive parse
      "clique 100 fast --hosts",                 // flag missing its value
      "clique 100 fast --hosts localhost",       // host without a port
      "clique 100 fast --hosts localhost:0",     // port 0 is reserved
      "clique 100 fast --hosts localhost:65536", // port beyond 16 bits
      "clique 100 fast --hosts a:1,,b:2",        // empty list element
      "clique 100 fast --hosts a:1, ",           // trailing comma
      "clique 100 fast --hosts a:1 --inject-fault exit:w3",  // slot beyond hosts
      "--serve",                                 // flag missing its value
      "--serve 65536",                           // port beyond 16 bits
      "--serve 1e4",                             // non-integer port
      "--serve 0 --hosts a:1",                   // daemon vs client roles
      "--serve 0 --jobs 2",                      // daemon takes no sweep flags
      "--serve 0 --load-artifact /tmp/x.ppaf",   // sweeps arrive by socket
      "clique 100 fast --serve 0",               // daemon takes no positionals
      "--serve 0 --cache-mb 0",                  // below the 1 MB floor
      "--serve 0 --cache-mb 1048577",            // beyond the 1 TB ceiling
      "--serve 0 --cache-mb 1e2",                // non-integer budget
      "--load-artifact /dev/null --cache-mb 64", // --cache-mb needs --serve
      "clique 100 id --progress",                // progress needs the engine
      "--serve 0 --progress",                    // daemon takes no sweep flags
  };
  for (const char* args : invalid) {
    const cli_result r = run_cli(args);
    EXPECT_GT(r.code, 0) << "popsim " << args
                         << " should exit nonzero but exited " << r.code;
  }
}

TEST(CliExitCodes, ValidRunExitsZero) {
  const cli_result r = run_cli("cycle 64 six --trials 2 --seed 3");
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("stabilized"), std::string::npos);
}

TEST(CliExitCodes, StarRunsOnTheTunedEngineWithTuningFlags) {
  // PR 5: protocol star goes through the compiled edge-census engine, so the
  // formerly fast-only tuning flags are now valid star invocations.
  const cli_result plain = run_cli("star 200 star --trials 3 --seed 2");
  EXPECT_EQ(plain.code, 0);
  EXPECT_NE(plain.out.find("engine: order=natural"), std::string::npos);
  EXPECT_NE(plain.out.find("stabilized: 100%"), std::string::npos);

  const cli_result tuned =
      run_cli("star 200 star --trials 3 --seed 2 --order rcm --pack 8");
  EXPECT_EQ(tuned.code, 0);
  EXPECT_NE(tuned.out.find("engine: order=rcm pack=u8"), std::string::npos);
  EXPECT_NE(tuned.out.find("stabilized: 100%"), std::string::npos);
}

TEST(CliExitCodes, SixRunsOnTheTunedEngineWithTuningFlags) {
  // Protocol six goes through the compiled engine on the silent scheduler,
  // so the tuning flags are valid six invocations.
  const cli_result plain = run_cli("cycle 100 six --trials 3 --seed 2");
  EXPECT_EQ(plain.code, 0);
  EXPECT_NE(plain.out.find("engine: order=natural pack=u8 scheduler=silent"),
            std::string::npos);
  EXPECT_NE(plain.out.find("stabilized: 100%"), std::string::npos);

  const cli_result tuned =
      run_cli("cycle 100 six --trials 3 --seed 2 --order rcm --pack 8");
  EXPECT_EQ(tuned.code, 0);
  EXPECT_NE(tuned.out.find("engine: order=rcm pack=u8 scheduler=silent"),
            std::string::npos);
  EXPECT_NE(tuned.out.find("stabilized: 100%"), std::string::npos);
}

// Exact stdout of one sweep per engine and report shape: the tuned engine
// (fast, star, six and fast on the silent scheduler, reordered + forced
// width), the well-mixed engine (fast, six) and the reference simulator
// (id).  The
// serial-vs-fleet diffs below cannot see a change that moves both sides
// together; these rows can.  They pin seeded trajectories, so after a
// deliberate change of draw consumption or of the report, regenerate them by
// running
//   build/test_cli --gtest_filter='CliGolden.*'
// and pasting the printed `actual` rows over the old ones.
TEST(CliGolden, StdoutMatchesRecordedSweeps) {
  struct golden_run {
    const char* args;
    const char* out;
  };
  const golden_run table[] = {
      {"cycle 200 fast --trials 4 --seed 3",
       "graph: cycle n=200 m=200 Δ=2\n"
       "engine: order=natural pack=u16\n"
       "stabilized: 100% of 4 trials\n"
       "steps: mean 1420203 (sd 101460, median 1461719, [q10,q90]=[1323476, 1483717])\n"
       "sample leader: node 12\n"},
      {"cycle 150 star --trials 3 --seed 2",
       "graph: cycle n=150 m=150 Δ=2\n"
       "engine: order=natural pack=u8\n"
       "stabilized: 0% of 3 trials\n"
       "sample leader: node -1\n"},
      {"rr8 400 fast --engine silent --trials 3 --seed 5",
       "graph: rr8 n=400 m=1600 Δ=8\n"
       "engine: order=natural pack=u16 scheduler=silent\n"
       "stabilized: 100% of 3 trials\n"
       "steps: mean 212542 (sd 26958, median 205430, [q10,q90]=[192968, 234960])\n"
       "sample leader: node 27\n"},
      {"clique 3000 fast --engine wellmixed --trials 4 --seed 9",
       "well-mixed clique: n=3000 (multiset configuration, no edge list)\n"
       "stabilized: 100% of 4 trials\n"
       "steps: mean 4.34e+06 (sd 3.3e+05, median 4.29e+06, [q10,q90]=[4.05e+06, 4.66e+06])\n"
       "stabilized trials elected a unique leader\n"},
      {"clique 3000 six --engine wellmixed --trials 4 --seed 9",
       "well-mixed clique: n=3000 (multiset configuration, no edge list)\n"
       "stabilized: 100% of 4 trials\n"
       "steps: mean 7.38e+06 (sd 2e+06, median 7.44e+06, [q10,q90]=[5.47e+06, 9.23e+06])\n"
       "stabilized trials elected a unique leader\n"},
      {"cycle 40 id --trials 3 --seed 1",
       "graph: cycle n=40 m=40 Δ=2\n"
       "stabilized: 100% of 3 trials\n"
       "steps: mean 1106 (sd 161, median 1188, [q10,q90]=[974, 1205])\n"
       "sample leader: node 33\n"},
      {"cycle 64 six --trials 3 --seed 3",
       "graph: cycle n=64 m=64 Δ=2\n"
       "engine: order=natural pack=u8 scheduler=silent\n"
       "stabilized: 100% of 3 trials\n"
       "steps: mean 22988 (sd 6752, median 25381, [q10,q90]=[17368, 27650])\n"
       "sample leader: node 23\n"},
      {"torus 400 fast --order rcm --pack 16 --trials 3 --seed 4",
       "graph: torus n=400 m=800 Δ=4\n"
       "engine: order=rcm pack=u16\n"
       "stabilized: 100% of 3 trials\n"
       "steps: mean 441750 (sd 83334, median 487847, [q10,q90]=[374011, 491050])\n"
       "sample leader: node 112\n"},
  };
  for (const golden_run& want : table) {
    const cli_result r = run_cli(want.args);
    EXPECT_EQ(r.code, 0) << "popsim " << want.args;
    if (r.out == want.out) continue;
    std::string row = std::string("actual {\"") + want.args + "\",\n";
    std::size_t start = 0;
    for (std::size_t end; (end = r.out.find('\n', start)) != std::string::npos;
         start = end + 1) {
      row += "  \"" + r.out.substr(start, end - start) + "\\n\"\n";
    }
    ADD_FAILURE() << row << "},";
  }
}

// The CLI half of the fleet-determinism gate: a --jobs sweep over a saved
// artifact prints exactly the serial stdout (worker chatter goes to stderr).
TEST(CliFleet, ArtifactSweepStdoutIsIdenticalSerialVsJobs) {
  const std::string dir = testing::TempDir();
  const std::string artifact = dir + "/cli_fleet.ppaf";
  const std::string resaved = dir + "/cli_fleet_resaved.ppaf";
  // The silent scheduler is a runtime knob outside the artifact, so it is
  // passed again at load time; six picks it on its own.
  struct sweep_case {
    std::string positional;
    std::string load_flags;
    std::string jobs;
  };
  const sweep_case cases[] = {
      {"cycle 400 fast", "", "3"},
      {"rr8 400 fast --engine silent", " --engine silent", "2"},
      {"cycle 400 six", "", "4"},
  };
  const std::string run_flags = " --trials 8 --seed 5";
  for (const sweep_case& c : cases) {
    SCOPED_TRACE(c.positional);
    const std::string positional = c.positional + run_flags;
    const cli_result saved = run_cli(positional + " --save-artifact " + artifact);
    ASSERT_EQ(saved.code, 0);
    const cli_result positional_fleet = run_cli(positional + " --jobs " + c.jobs);
    ASSERT_EQ(positional_fleet.code, 0);
    EXPECT_EQ(saved.out, positional_fleet.out);

    const std::string sweep_args =
        "--load-artifact " + artifact + run_flags + c.load_flags;
    const cli_result serial = run_cli(sweep_args);
    const cli_result fleet = run_cli(sweep_args + " --jobs " + c.jobs);
    ASSERT_EQ(serial.code, 0);
    ASSERT_EQ(fleet.code, 0);
    EXPECT_EQ(serial.out, fleet.out);
    // The artifact-driven serial sweep also reproduces the classic run.
    EXPECT_EQ(saved.out, serial.out);

    // Round trip: load → re-save must be byte-identical (cmp in CI).
    const cli_result resave = run_cli("--load-artifact " + artifact +
                                      " --trials 1 --save-artifact " + resaved);
    ASSERT_EQ(resave.code, 0);
    std::FILE* a = std::fopen(artifact.c_str(), "rb");
    std::FILE* b = std::fopen(resaved.c_str(), "rb");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    std::string bytes_a, bytes_b;
    std::array<char, 4096> buf;
    std::size_t got = 0;
    while ((got = fread(buf.data(), 1, buf.size(), a)) > 0) bytes_a.append(buf.data(), got);
    while ((got = fread(buf.data(), 1, buf.size(), b)) > 0) bytes_b.append(buf.data(), got);
    std::fclose(a);
    std::fclose(b);
    EXPECT_FALSE(bytes_a.empty());
    EXPECT_EQ(bytes_a, bytes_b);
    std::remove(artifact.c_str());
    std::remove(resaved.c_str());
  }
}

// Star sweeps shard like fast ones: the artifact carries the EDGE section
// and the fleet stdout is byte-identical to serial.
TEST(CliFleet, StarArtifactSweepStdoutIsIdenticalSerialVsJobs) {
  const std::string dir = testing::TempDir();
  const std::string artifact = dir + "/cli_star.ppaf";
  const std::string resaved = dir + "/cli_star_resaved.ppaf";

  const cli_result saved =
      run_cli("cycle 300 star --trials 9 --seed 6 --save-artifact " + artifact);
  ASSERT_EQ(saved.code, 0);

  const std::string sweep_args = "--load-artifact " + artifact + " --trials 9 --seed 6";
  const cli_result serial = run_cli(sweep_args);
  const cli_result fleet = run_cli(sweep_args + " --jobs 3");
  ASSERT_EQ(serial.code, 0);
  ASSERT_EQ(fleet.code, 0);
  EXPECT_EQ(serial.out, fleet.out);
  EXPECT_EQ(saved.out, serial.out);

  const cli_result resave = run_cli("--load-artifact " + artifact +
                                    " --trials 1 --save-artifact " + resaved);
  ASSERT_EQ(resave.code, 0);
  std::FILE* a = std::fopen(artifact.c_str(), "rb");
  std::FILE* b = std::fopen(resaved.c_str(), "rb");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  std::string bytes_a, bytes_b;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), a)) > 0) bytes_a.append(buf.data(), got);
  while ((got = fread(buf.data(), 1, buf.size(), b)) > 0) bytes_b.append(buf.data(), got);
  std::fclose(a);
  std::fclose(b);
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(artifact.c_str());
  std::remove(resaved.c_str());
}

// A fault spec must name a slot the sweep actually launches.  Slots only
// start while trial chunks remain, so 2 trials on --jobs 4 run slots w0 and
// w1: a spec for w3 would never fire, and popsim must say so and fail
// instead of printing a fault-free run as if the fault had been exercised.
TEST(CliFleet, FaultSpecOnAnUnlaunchedSlotIsRejected) {
  const cli_result r = run_cli_stderr(
      "cycle 200 fast --trials 2 --jobs 4 --inject-fault exit:w3");
  EXPECT_GT(r.code, 0);
  EXPECT_NE(r.out.find("fault spec names worker slot w3"), std::string::npos)
      << "stderr was: " << r.out;
  EXPECT_NE(r.out.find("would never fire"), std::string::npos)
      << "stderr was: " << r.out;
  // With enough trials for four chunks the same spec fires and recovers.
  EXPECT_EQ(run_cli("cycle 200 fast --trials 4 --jobs 4 --inject-fault exit:w3")
                .code,
            0);
}

// The CLI half of the crash-recovery gate: a sweep with an injected worker
// crash, and a journaled sweep resumed to completion, both print exactly the
// serial stdout (supervisor chatter goes to stderr).
TEST(CliFleet, FaultInjectedAndResumedSweepsMatchSerialStdout) {
  const std::string journal = testing::TempDir() + "/cli_recovery.ppaj";
  std::remove(journal.c_str());
  const std::string base = "cycle 200 fast --trials 8 --seed 5";

  const cli_result serial = run_cli(base);
  ASSERT_EQ(serial.code, 0);

  // A worker SIGKILLed mid-chunk is respawned; stdout is unchanged.
  const cli_result crashed =
      run_cli(base + " --jobs 3 --inject-fault sigkill:w1:after=1");
  ASSERT_EQ(crashed.code, 0);
  EXPECT_EQ(serial.out, crashed.out);

  // A journaled sweep spools every trial; resuming the complete journal
  // re-runs nothing and prints the same summary.
  const cli_result journaled =
      run_cli(base + " --jobs 2 --journal " + journal);
  ASSERT_EQ(journaled.code, 0);
  EXPECT_EQ(serial.out, journaled.out);
  const cli_result resumed =
      run_cli(base + " --jobs 2 --journal " + journal + " --resume");
  ASSERT_EQ(resumed.code, 0);
  EXPECT_EQ(serial.out, resumed.out);

  // The resume logs a one-line replay summary (records replayed / corrupt
  // skipped / torn tail) through the obs::log helper.
  const cli_result resumed_err =
      run_cli_stderr(base + " --jobs 2 --journal " + journal + " --resume");
  ASSERT_EQ(resumed_err.code, 0);
  EXPECT_NE(resumed_err.out.find(
                "journal replay: 8 record(s) replayed (8/8 trial(s)), "
                "0 corrupt record(s) skipped, torn tail none"),
            std::string::npos)
      << "stderr was: " << resumed_err.out;
  // --log-level error silences the info-level summary.
  const cli_result quiet = run_cli_stderr(base + " --jobs 2 --journal " +
                                          journal + " --resume --log-level error");
  ASSERT_EQ(quiet.code, 0);
  EXPECT_EQ(quiet.out.find("journal replay:"), std::string::npos);

  // Resuming the journal under a different seed is a loud error, not a
  // silently merged pair of unrelated sweeps.
  const cli_result mismatched = run_cli(
      "cycle 200 fast --trials 8 --seed 6 --jobs 2 --journal " + journal +
      " --resume");
  EXPECT_GT(mismatched.code, 0);
  std::remove(journal.c_str());
}

// The flight recorder rides any sweep without changing its stdout, and the
// snapshot files land where the flags point.
TEST(CliFleet, MetricsAndTraceLeaveStdoutUntouched) {
  const std::string dir = testing::TempDir();
  const std::string metrics = dir + "/cli_obs_metrics.json";
  const std::string trace = dir + "/cli_obs_trace.json";
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
  const std::string base = "cycle 200 fast --trials 4 --seed 7";

  const cli_result serial = run_cli(base);
  ASSERT_EQ(serial.code, 0);
  const cli_result recorded = run_cli(base + " --jobs 2 --probe-stride 4096" +
                                      " --metrics " + metrics + " --trace " +
                                      trace);
  ASSERT_EQ(recorded.code, 0);
  EXPECT_EQ(serial.out, recorded.out);

  // Spot-check the snapshots: sorted-JSON metrics with both the fleet.*
  // supervisor counters and the workers' engine.* rollup; a trace document
  // with the supervisor span and merged per-trial worker spans.
  std::ifstream min(metrics);
  ASSERT_TRUE(min.good());
  std::string mjson((std::istreambuf_iterator<char>(min)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(mjson.find("\"popsim_metrics\": 1"), std::string::npos);
  EXPECT_NE(mjson.find("\"fleet.records_received\": 4"), std::string::npos);
  EXPECT_NE(mjson.find("\"engine.trials\": 4"), std::string::npos);
  EXPECT_NE(mjson.find("engine.steps_per_trial"), std::string::npos);

  std::ifstream tin(trace);
  ASSERT_TRUE(tin.good());
  std::string tjson((std::istreambuf_iterator<char>(tin)),
                    std::istreambuf_iterator<char>());
  EXPECT_NE(tjson.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(tjson.find("\"name\": \"supervise\""), std::string::npos);
  EXPECT_NE(tjson.find("\"name\": \"worker_spawn\""), std::string::npos);
  EXPECT_NE(tjson.find("\"name\": \"trial\""), std::string::npos);
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

// --progress is stderr-only: the status line rides any sweep (it routes even
// a --jobs 1 run through the supervisor) without perturbing stdout.
TEST(CliFleet, ProgressLeavesStdoutUntouched) {
  const std::string base = "cycle 200 fast --trials 6 --seed 8";

  const cli_result serial = run_cli(base);
  ASSERT_EQ(serial.code, 0);
  const cli_result progressed = run_cli(base + " --jobs 2 --progress");
  ASSERT_EQ(progressed.code, 0);
  EXPECT_EQ(serial.out, progressed.out);
  const cli_result supervised_serial = run_cli(base + " --progress");
  ASSERT_EQ(supervised_serial.code, 0);
  EXPECT_EQ(serial.out, supervised_serial.out);

  // The final status line lands on stderr: all trials done, no ETA left.
  const cli_result err = run_cli_stderr(base + " --jobs 2 --progress");
  ASSERT_EQ(err.code, 0);
  EXPECT_NE(err.out.find("6/6 trials"), std::string::npos)
      << "stderr was: " << err.out;
  EXPECT_NE(err.out.find("done"), std::string::npos);
}

TEST(CliFleet, WellmixedArtifactSweepIsDeterministic) {
  const std::string artifact = testing::TempDir() + "/cli_wm.ppaf";
  for (const std::string protocol : {"fast", "six"}) {
    SCOPED_TRACE(protocol);
    const cli_result saved =
        run_cli("clique 3000 " + protocol +
                " --engine wellmixed --trials 6 --seed 9 --save-artifact " + artifact);
    ASSERT_EQ(saved.code, 0);
    const std::string sweep_args = "--load-artifact " + artifact + " --trials 6 --seed 9";
    const cli_result serial = run_cli(sweep_args);
    const cli_result fleet = run_cli(sweep_args + " --jobs 4");
    ASSERT_EQ(serial.code, 0);
    ASSERT_EQ(fleet.code, 0);
    EXPECT_EQ(serial.out, fleet.out);
    EXPECT_EQ(saved.out, serial.out);
    std::remove(artifact.c_str());
  }
}

// The silent scheduler walks graph edges and a well-mixed artifact has
// none: a worker whose manifest asks for it must fail loudly instead of
// streaming step-scheduler records as if the request had been honoured.
TEST(CliFleet, SilentSchedulerOnAWellmixedWorkerIsRejected) {
  const std::string dir = testing::TempDir();
  const std::string artifact = dir + "/cli_wm_silent.ppaf";
  const std::string manifest = dir + "/cli_wm_silent.manifest";
  ASSERT_EQ(run_cli("clique 3000 fast --engine wellmixed --trials 1 "
                    "--save-artifact " + artifact)
                .code,
            0);
  {
    std::ofstream out(manifest);
    out << "ppfleet-manifest v1\nartifact=" << artifact
        << "\nseed=1\ntrials=2\njobs=1\nscheduler=silent\n";
  }
  const cli_result r = run_cli_stderr("--worker " + manifest + " 0 0 2");
  EXPECT_GT(r.code, 0);
  EXPECT_NE(r.out.find("silent scheduler"), std::string::npos)
      << "stderr was: " << r.out;
  std::remove(artifact.c_str());
  std::remove(manifest.c_str());
}

#else

TEST(CliExitCodes, SkippedWithoutExamples) {
  GTEST_SKIP() << "example_popsim_cli not built (PP_BUILD_EXAMPLES=OFF)";
}

#endif  // PP_POPSIM_CLI

}  // namespace
