/// Serving workloads: the open-loop phases (serve_open.*), the wire closed
/// loop (serve_wire), and the serving part of the per-layer ledger.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <random>
#include <thread>

#include "dcnas/obs/metrics.hpp"
#include "dcnas/obs/trace.hpp"
#include "dcnas/serve/server.hpp"
#include "dcnas/serve/wire.hpp"
#include "workloads.hpp"

namespace repobench {

using namespace dcnas;
using namespace std::chrono_literals;

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kLow: return "low";
    case Phase::kHigh: return "high";
    case Phase::kOver: return "over";
  }
  return "?";
}

namespace {

// Thread budget: nproc = 4. The open loop is one generator thread plus three
// single-worker replicas (so power-of-two-choices routing is exercised); the
// wire loop is two client connections plus one replica with two workers.
//
// The open-loop server is sized for its 25 ms deadline: a row costs about
// 3 ms on a busy replica, so batches of at most 2 rows and at most 3 queued
// requests per replica keep an admitted request inside the deadline, and
// overload resolves as typed kQueueFull refusals instead of late answers.
// Larger batches or queues make goodput past capacity collapse towards zero,
// where it is dominated by noise.
serve::ServerOptions open_server_options() {
  serve::ServerOptions o;
  o.num_replicas = 3;
  o.num_workers = 1;
  o.batch.max_batch = 2;
  o.batch.max_delay = 2ms;
  o.batch.queue_capacity = 3;
  return o;
}

serve::ServerOptions wire_server_options() {
  serve::ServerOptions o;
  o.num_replicas = 1;
  o.num_workers = 2;
  o.batch.max_batch = 32;
  o.batch.max_delay = 2ms;
  return o;
}
constexpr int kWireClients = 2;

bool output_ok(const Options& options, const Tensor& got, const Tensor& ref) {
  return argmax_rows(got) == argmax_rows(ref) &&
         max_abs_diff(got, ref) <= options.output_tol;
}

double warmup_seconds(const Options& options, double seconds) {
  return options.smoke ? 0.1 : std::clamp(0.15 * seconds, 0.3, 1.0);
}

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Span durations (ms) of one name in the current trace snapshot.
std::vector<double> span_ms(const std::vector<obs::SpanEvent>& events,
                            const char* name) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (std::strcmp(e.name, name) == 0) {
      out.push_back(static_cast<double>(e.duration_ns) / 1e6);
    }
  }
  return out;
}

obs::Histogram& batch_size_histogram() {
  // Registered by the batcher on first use with these boundaries.
  return obs::MetricsRegistry::global().histogram(
      "serve.batch.size", {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
}

/// Per-phase tally of the open-loop generator.
struct OpenTally {
  std::vector<double> latency_ms;  ///< ok responses, scheduled -> ready
  std::vector<double> latency_at;  ///< scheduled offset into the window, s
  std::vector<double> submit_us;
  std::vector<double> lateness_ms;
  std::vector<double> pending;
  std::int64_t attempted = 0, good = 0, late = 0, shed = 0, rejected = 0,
               errors = 0, wrong = 0, lost = 0;
};

struct Outstanding {
  std::future<Tensor> fut;
  Clock::time_point scheduled;
  std::size_t chip = 0;
  bool measured = false;
};

}  // namespace

ServingModel load_serving_model(const ServingFixture& fixture, int loads) {
  ServingModel m;
  for (int i = 0; i < loads; ++i) {
    auto registry = std::make_shared<serve::ModelRegistry>();
    const auto t0 = Clock::now();
    registry->load(kModelName, fixture.model_path);
    m.load_s.push_back(seconds_between(t0, Clock::now()));
    m.registry = std::move(registry);
  }
  const auto plan = m.registry->snapshot(kModelName).plan;
  for (std::int64_t i = 0; i < fixture.chips.dim(0); ++i) {
    m.chips.push_back(row_of(fixture.chips, i));
    m.refs.push_back(plan->run(m.chips.back()));
  }
  return m;
}

Headline serve_open_phase(const Options& options, const ServingModel& model,
                          serve::Server& server, Phase phase, double seconds,
                          Report& report, bool ledger) {
  const double rate = phase == Phase::kLow    ? options.rate_low
                      : phase == Phase::kHigh ? options.rate_high
                                              : options.rate_over;
  const auto deadline = std::chrono::microseconds(
      static_cast<std::int64_t>(options.deadline_ms * 1000.0));
  std::mt19937_64 gen(options.seed * 1000003ULL +
                      static_cast<std::uint64_t>(phase));
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<std::size_t> pick(0, model.chips.size() - 1);

  const auto start = Clock::now() + 1ms;
  const auto warm_end = start + to_duration(warmup_seconds(options, seconds));
  const auto end = warm_end + to_duration(seconds);
  OpenTally t;
  std::vector<Outstanding> out;
  auto settle = [&](Outstanding& o, Clock::time_point ready) {
    try {
      Tensor y = o.fut.get();
      if (!o.measured) return;
      if (!output_ok(options, y, model.refs[o.chip])) {
        ++t.wrong;
        return;
      }
      const double ms = ms_between(o.scheduled, ready);
      t.latency_ms.push_back(ms);
      t.latency_at.push_back(seconds_between(warm_end, o.scheduled));
      ++(ms <= options.deadline_ms ? t.good : t.late);
    } catch (const serve::RejectedError&) {
      if (o.measured) ++t.shed;
    } catch (const std::exception&) {
      if (o.measured) ++t.errors;
    }
  };
  // Stamps every finished request at the moment the poll sees it ready, in
  // whatever order requests finish.
  auto poll = [&] {
    for (std::size_t i = 0; i < out.size();) {
      if (out[i].fut.wait_for(0s) == std::future_status::ready) {
        settle(out[i], Clock::now());
        out[i] = std::move(out.back());
        out.pop_back();
      } else {
        ++i;
      }
    }
  };

  obs::Histogram& rows = batch_size_histogram();
  std::int64_t rows_count0 = 0;
  double rows_sum0 = 0.0;
  bool warm_done = false;
  auto next = start + to_duration(gap(gen));
  while (next < end) {
    for (;;) {
      poll();
      const auto left = next - Clock::now();
      if (left <= Clock::duration::zero()) break;
      // Sleep in short slices (the poll keeps ready-stamps fresh) and spin
      // only through the last ~80 us, which a sleep would overshoot.
      if (left > 120us) {
        std::this_thread::sleep_for(
            std::min<Clock::duration>(left - 80us, 100us));
      }
    }
    const bool measured = next >= warm_end;
    if (measured && !warm_done) {
      warm_done = true;
      if (ledger) obs::TraceRecorder::global().clear();
      rows_count0 = rows.count();
      rows_sum0 = rows.sum();
    }
    const std::size_t chip = pick(gen);
    const auto pending = static_cast<double>(server.pending());
    const auto sent = Clock::now();
    try {
      out.push_back({server.submit(kModelName, model.chips[chip], deadline),
                     next, chip, measured});
    } catch (const serve::RejectedError&) {
      if (measured) ++t.rejected;
    }
    if (measured) {
      ++t.attempted;
      t.submit_us.push_back(us_between(sent, Clock::now()));
      t.lateness_ms.push_back(ms_between(next, sent));
      t.pending.push_back(pending);
    }
    next += to_duration(gap(gen));
  }
  const auto drain_until = Clock::now() + 10s;
  while (!out.empty() && Clock::now() < drain_until) {
    poll();
    std::this_thread::sleep_for(100us);
  }
  for (const auto& o : out) t.lost += o.measured ? 1 : 0;

  Headline h;
  h.p50_ms = pct(t.latency_ms, 0.50);
  h.p90_ms = blocked_quantile(t.latency_ms, t.latency_at, seconds, 0.90);
  h.throughput_per_s = static_cast<double>(t.good) / seconds;
  const char* ph = phase_name(phase);
  std::printf(
      "serve_open.%s rate %.1f/s: attempted %lld good %lld late %lld shed %lld "
      "rejected %lld errors %lld wrong %lld lost %lld | p50 %.3f ms p90 %.3f "
      "ms goodput %.1f/s | generator lateness p99 %.3f ms\n",
      ph, rate, static_cast<long long>(t.attempted),
      static_cast<long long>(t.good), static_cast<long long>(t.late),
      static_cast<long long>(t.shed), static_cast<long long>(t.rejected),
      static_cast<long long>(t.errors), static_cast<long long>(t.wrong),
      static_cast<long long>(t.lost), h.p50_ms, h.p90_ms, h.throughput_per_s,
      pct(t.lateness_ms, 0.99));
  report.attempted(t.attempted);
  report.failed(t.errors + t.wrong + t.lost);
  report.check(t.wrong == 0,
               std::string("serve_open.") + ph +
                   ": every response matches the direct batch-1 plan run");
  report.check(t.errors == 0 && t.lost == 0,
               std::string("serve_open.") + ph +
                   ": every request is answered (result or typed shed)");
  report.check(t.good > 0, std::string("serve_open.") + ph +
                               ": some requests meet the deadline");

  if (ledger) {
    const std::string sfx = std::string(".") + ph;
    report.metric("serve.submit_us.p50" + sfx, pct(t.submit_us, 0.50), "us");
    report.metric("serve.submit_us.p99" + sfx, pct(t.submit_us, 0.99), "us");
    report.metric("serve.pending.mean" + sfx, mean_of(t.pending), "count");
    report.metric("serve.pending.max" + sfx,
                  t.pending.empty() ? 0.0
                                    : *std::max_element(t.pending.begin(),
                                                        t.pending.end()),
                  "count");
    const auto batches = rows.count() - rows_count0;
    report.metric("serve.batch_rows.mean" + sfx,
                  batches > 0 ? (rows.sum() - rows_sum0) /
                                    static_cast<double>(batches)
                              : 0.0,
                  "rows");
    const auto events = obs::TraceRecorder::global().snapshot();
    report.metric("serve.batch.execute_ms.p50" + sfx,
                  pct(span_ms(events, "serve.batch.execute"), 0.50), "ms");
    report.metric("serve.batch.merge_us.p50" + sfx,
                  1000.0 * pct(span_ms(events, "serve.batch.merge"), 0.50),
                  "us");
    report.metric("gen.lateness_ms.p99" + sfx, pct(t.lateness_ms, 0.99),
                  "ms");
    report.metric("serve.latency_ms.p50" + sfx, h.p50_ms, "ms");
    report.metric("serve.latency_ms.p90" + sfx, h.p90_ms, "ms");
    if (phase == Phase::kOver) {
      const double n = static_cast<double>(std::max<std::int64_t>(
          t.attempted, 1));
      report.metric("serve.shed_ratio.over", static_cast<double>(t.shed) / n,
                    "ratio");
      report.metric("serve.reject_ratio.over",
                    static_cast<double>(t.rejected) / n, "ratio");
    }
  }
  return h;
}

namespace {

/// Closed loop of kWireClients threads; \p one_request sends chip i and
/// returns the output. Returns per-request round trips of the measured
/// window and adds to the tallies.
struct ClosedTally {
  std::vector<double> rtt_ms;
  std::vector<double> rtt_at;  ///< send offset into the window, s
  std::int64_t attempted = 0, ok = 0, errors = 0, wrong = 0;
};

template <typename Connect>
ClosedTally closed_loop(const Options& options, const ServingModel& model,
                        double seconds, bool clear_trace_after_warmup,
                        Connect connect) {
  std::vector<ClosedTally> per(kWireClients);
  const auto start = Clock::now();
  const auto warm_end = start + to_duration(warmup_seconds(options, seconds));
  const auto end = warm_end + to_duration(seconds);
  std::vector<std::thread> clients;
  for (int c = 0; c < kWireClients; ++c) {
    clients.emplace_back([&, c] {
      auto send = connect();
      std::mt19937_64 gen(options.seed * 7919ULL + static_cast<unsigned>(c));
      std::uniform_int_distribution<std::size_t> pick(0,
                                                      model.chips.size() - 1);
      ClosedTally& t = per[static_cast<std::size_t>(c)];
      for (auto now = Clock::now(); now < end; now = Clock::now()) {
        const bool measured = now >= warm_end;
        const std::size_t chip = pick(gen);
        try {
          const Tensor y = send(model.chips[chip]);
          const auto done = Clock::now();
          if (!measured) continue;
          ++t.attempted;
          if (!output_ok(options, y, model.refs[chip])) {
            ++t.wrong;
          } else {
            ++t.ok;
            t.rtt_ms.push_back(ms_between(now, done));
            t.rtt_at.push_back(seconds_between(warm_end, now));
          }
        } catch (const std::exception& e) {
          if (measured) {
            ++t.attempted;
            ++t.errors;
          }
          std::fprintf(stderr, "closed loop: %s\n", e.what());
          return;
        }
      }
    });
  }
  if (clear_trace_after_warmup) {
    std::this_thread::sleep_until(warm_end);
    obs::TraceRecorder::global().clear();
  }
  for (auto& th : clients) th.join();
  ClosedTally total;
  for (auto& t : per) {
    total.rtt_ms.insert(total.rtt_ms.end(), t.rtt_ms.begin(), t.rtt_ms.end());
    total.rtt_at.insert(total.rtt_at.end(), t.rtt_at.begin(), t.rtt_at.end());
    total.attempted += t.attempted;
    total.ok += t.ok;
    total.errors += t.errors;
    total.wrong += t.wrong;
  }
  return total;
}

}  // namespace

Headline serve_wire_loop(const Options& options, const ServingModel& model,
                         serve::Server& server, double seconds,
                         Report& report, bool ledger) {
  serve::WireServerOptions wopt;
  wopt.unix_path = options.workdir + "/wire.sock";
  std::filesystem::remove(wopt.unix_path);
  ClosedTally t;
  {
    serve::WireServer wire(server, wopt);
    t = closed_loop(options, model, seconds, ledger, [&] {
      auto client = std::make_shared<serve::WireClient>(
          serve::WireClient::connect_unix(wopt.unix_path));
      return [client](const Tensor& x) { return client->infer(kModelName, x); };
    });
    wire.stop();
  }
  std::filesystem::remove(wopt.unix_path);

  Headline h;
  h.p50_ms = pct(t.rtt_ms, 0.50);
  h.p90_ms = blocked_quantile(t.rtt_ms, t.rtt_at, seconds, 0.90);
  h.throughput_per_s = static_cast<double>(t.ok) / seconds;
  std::printf("serve_wire %d connections: attempted %lld ok %lld errors %lld "
              "wrong %lld | p50 %.3f ms p90 %.3f ms throughput %.1f img/s\n",
              kWireClients, static_cast<long long>(t.attempted),
              static_cast<long long>(t.ok), static_cast<long long>(t.errors),
              static_cast<long long>(t.wrong), h.p50_ms, h.p90_ms,
              h.throughput_per_s);
  report.attempted(t.attempted);
  report.failed(t.errors + t.wrong);
  report.check(t.wrong == 0,
               "serve_wire: every response matches the direct batch-1 plan run");
  report.check(t.errors == 0 && t.ok > 0,
               "serve_wire: every request is answered");
  if (ledger) {
    const auto events = obs::TraceRecorder::global().snapshot();
    const auto req = span_ms(events, "serve.wire.request");
    report.metric("serve.wire.request_ms.p50", pct(req, 0.50), "ms");
    report.metric("serve.wire.request_ms.p99", pct(req, 0.99), "ms");
  }
  return h;
}

void run_serve_open(const Options& options, const ServingFixture& fixture,
                    Report& report, Phase phase) {
  const ServingModel model = load_serving_model(fixture, 5);
  serve::Server server(model.registry, open_server_options());
  const Headline h =
      serve_open_phase(options, model, server, phase, options.seconds,
                       report, false);
  server.shutdown();
  report_end_to_end(report, pct(model.load_s, 0.5), h);
}

void run_serve_wire(const Options& options, const ServingFixture& fixture,
                    Report& report) {
  const ServingModel model = load_serving_model(fixture, 5);
  serve::Server server(model.registry, wire_server_options());
  const Headline h =
      serve_wire_loop(options, model, server, options.seconds, report, false);
  server.shutdown();
  report_end_to_end(report, pct(model.load_s, 0.5), h);
}

Headline serve_headline(const Options& options, const ServingFixture& fixture,
                        const std::string& workload, double seconds,
                        Report& report) {
  const ServingModel model = load_serving_model(fixture, 1);
  if (workload == "serve_wire") {
    serve::Server server(model.registry, wire_server_options());
    return serve_wire_loop(options, model, server, seconds, report, false);
  }
  const Phase phase =
      workload == "serve_open.high" ? Phase::kHigh : Phase::kOver;
  serve::Server server(model.registry, open_server_options());
  return serve_open_phase(options, model, server, phase, seconds, report,
                          false);
}

void ledger_serve(const Options& options, const ServingFixture& fixture,
                  double seconds, Report& report) {
  const ServingModel model = load_serving_model(fixture, 1);
  {
    // The three phases back to back on one server, as one generator.
    serve::Server server(model.registry, open_server_options());
    for (const Phase phase : {Phase::kLow, Phase::kHigh, Phase::kOver}) {
      serve_open_phase(options, model, server, phase, seconds, report, true);
    }
  }

  serve::Server server(model.registry, wire_server_options());
  const Headline wire =
      serve_wire_loop(options, model, server, seconds, report, true);
  // The same closed loop through Server::submit in-process: the difference
  // of the medians is what the wire front end adds.
  const ClosedTally local = closed_loop(options, model, seconds, false, [&] {
    return [&server](const Tensor& x) {
      return server.submit(kModelName, x).get();
    };
  });
  report.check(local.wrong == 0 && local.errors == 0,
               "in-process closed loop: every response matches");
  report.metric("wire.overhead_ms.p50", wire.p50_ms - pct(local.rtt_ms, 0.5),
                "ms");

  // Codec cost of one chip, from the public encode/decode calls.
  const int reps = options.smoke ? 50 : 2000;
  serve::WireRequest req;
  req.model = kModelName;
  req.input = model.chips.front();
  std::size_t sink = 0;
  auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) sink += serve::encode_request(req).size();
  report.metric("wire.encode_request_us", us_between(t0, Clock::now()) / reps,
                "us");
  serve::WireResponse resp;
  resp.output = model.refs.front();
  const auto bytes = serve::encode_response(resp);
  t0 = Clock::now();
  for (int i = 0; i < reps; ++i) {
    sink += static_cast<std::size_t>(
        serve::decode_response(bytes.data(), bytes.size()).output.numel());
  }
  report.metric("wire.decode_response_us", us_between(t0, Clock::now()) / reps,
                "us");
  report.check(sink > 0, "wire codec produced bytes");
}

}  // namespace repobench
