// Tests for the SLO burn-rate engine (obs/slo.hpp) and the embedded HTTP
// exposition server (obs/http_server.hpp): deterministic fake-clock burn
// math, edge-triggered alerting with re-arm, gauge/counter families, and
// raw-socket request/response behaviour of the listener.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/http_server.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/slo.hpp"

namespace {

using namespace ahn;

// ---------------------------------------------------------------------------
// SloEngine

// A shared fake clock: tests advance *t and the engine observes it.
Clock fake_clock(const std::shared_ptr<double>& t) {
  return [t] { return *t; };
}

obs::SloSpec availability_spec() {
  obs::SloSpec spec;
  spec.name = "avail";
  spec.kind = obs::SloKind::kAvailability;
  spec.objective = 0.9;  // 10% error budget, so burn = error_rate * 10
  spec.fast_window_seconds = 10.0;
  spec.mid_window_seconds = 50.0;
  spec.slow_window_seconds = 200.0;
  spec.page_burn_threshold = 5.0;
  spec.ticket_burn_threshold = 3.0;
  return spec;
}

TEST(SloEngine, BurnRatesFollowTheEwmaClosedForm) {
  auto t = std::make_shared<double>(0.0);
  obs::SloEngine eng({availability_spec()}, nullptr, nullptr, fake_clock(t));

  // 50s of all-good traffic: zero burn everywhere.
  for (int i = 0; i < 50; ++i) {
    *t += 1.0;
    eng.record("m", 0.0, /*ok=*/true, /*qoi_fallback=*/false);
  }
  auto st = eng.evaluate();
  ASSERT_EQ(st.size(), 1u);
  EXPECT_EQ(st[0].events, 50u);
  EXPECT_EQ(st[0].bad_events, 0u);
  EXPECT_DOUBLE_EQ(st[0].fast_burn, 0.0);
  EXPECT_FALSE(st[0].burning);

  // 100s of all-bad traffic. Starting from ewma=0 and stepping x=1 at dt=1,
  // the EWMA has the closed form 1 - exp(-N / tau); burn divides by the 0.1
  // error budget.
  for (int i = 0; i < 100; ++i) {
    *t += 1.0;
    eng.record("m", 0.0, /*ok=*/false, /*qoi_fallback=*/false);
  }
  st = eng.evaluate();
  EXPECT_EQ(st[0].events, 150u);
  EXPECT_EQ(st[0].bad_events, 100u);
  EXPECT_NEAR(st[0].fast_burn, (1.0 - std::exp(-100.0 / 10.0)) / 0.1, 1e-2);
  EXPECT_NEAR(st[0].mid_burn, (1.0 - std::exp(-100.0 / 50.0)) / 0.1, 1e-2);
  EXPECT_NEAR(st[0].slow_burn, (1.0 - std::exp(-100.0 / 200.0)) / 0.1, 1e-2);
  EXPECT_TRUE(st[0].burning);
}

TEST(SloEngine, BurnsDecayToZeroOnAnIdleStream) {
  auto t = std::make_shared<double>(0.0);
  obs::SloEngine eng({availability_spec()}, nullptr, nullptr, fake_clock(t));
  for (int i = 0; i < 100; ++i) {
    *t += 1.0;
    eng.record("m", 0.0, false, false);
  }
  ASSERT_TRUE(eng.evaluate()[0].burning);

  // No events at all for a long time: the windows decay toward zero, so an
  // idle (or recovered) stream stops burning without needing good traffic.
  *t += 1000.0;
  auto st = eng.evaluate();
  EXPECT_LT(st[0].fast_burn, 1e-6);
  EXPECT_LT(st[0].mid_burn, 1e-3);
  EXPECT_FALSE(st[0].burning);
}

TEST(SloEngine, AlertsAreEdgeTriggeredAndReArm) {
  auto t = std::make_shared<double>(0.0);
  obs::AlertSink sink;
  obs::SloEngine eng({availability_spec()}, &sink, nullptr, fake_clock(t));

  auto burn_for = [&](int seconds) {
    for (int i = 0; i < seconds; ++i) {
      *t += 1.0;
      eng.record("m", 0.0, false, false);
    }
    eng.evaluate();
  };

  burn_for(100);
  EXPECT_EQ(sink.raised(obs::AlertKind::kSloBurn), 1u);
  // Re-evaluating while still burning must not re-fire.
  eng.evaluate();
  eng.evaluate();
  EXPECT_EQ(sink.raised(obs::AlertKind::kSloBurn), 1u);

  // Recovery clears the condition and re-arms the edge...
  *t += 1000.0;
  EXPECT_FALSE(eng.evaluate()[0].burning);
  EXPECT_EQ(sink.raised(obs::AlertKind::kSloBurn), 1u);

  // ...so a second burn episode fires a second alert.
  burn_for(100);
  EXPECT_EQ(sink.raised(obs::AlertKind::kSloBurn), 2u);
  EXPECT_EQ(eng.status()[0].alerts_raised, 2u);

  const std::vector<obs::Alert> recent = sink.recent();
  ASSERT_FALSE(recent.empty());
  const obs::Alert& alert = recent.back();
  EXPECT_EQ(alert.kind, obs::AlertKind::kSloBurn);
  EXPECT_NE(alert.message.find("avail"), std::string::npos);
}

TEST(SloEngine, LatencyAndFallbackKindsClassifyBadEvents) {
  auto t = std::make_shared<double>(0.0);
  obs::SloSpec lat;
  lat.name = "p99_latency";
  lat.kind = obs::SloKind::kLatency;
  lat.objective = 0.99;
  lat.threshold_seconds = 0.1;
  obs::SloSpec qoi;
  qoi.name = "fallback";
  qoi.kind = obs::SloKind::kQoiFallbackRate;
  qoi.objective = 0.95;
  obs::SloEngine eng({lat, qoi}, nullptr, nullptr, fake_clock(t));

  *t += 1.0;
  eng.record("m", 0.05, true, false);  // fast + served: good for both
  *t += 1.0;
  eng.record("m", 0.50, true, false);  // slow: bad for latency only
  *t += 1.0;
  eng.record("m", 0.05, true, true);   // fallback: bad for qoi only
  *t += 1.0;
  eng.record("m", 0.05, false, false);  // failed: bad for latency (no number
                                        // to be under threshold), not qoi

  auto st = eng.status();
  ASSERT_EQ(st.size(), 2u);
  EXPECT_EQ(st[0].spec.name, "p99_latency");
  EXPECT_EQ(st[0].bad_events, 2u);
  EXPECT_EQ(st[1].spec.name, "fallback");
  EXPECT_EQ(st[1].bad_events, 1u);
}

TEST(SloEngine, ModelFilterAndDroppedRequests) {
  auto t = std::make_shared<double>(0.0);
  obs::SloSpec only_a = availability_spec();
  only_a.model = "a";
  obs::SloSpec lat;
  lat.name = "lat";
  lat.kind = obs::SloKind::kLatency;
  lat.threshold_seconds = 1.0;
  obs::SloEngine eng({only_a, lat}, nullptr, nullptr, fake_clock(t));

  *t += 1.0;
  eng.record("b", 0.0, true, false);  // wrong model: spec "a" sees nothing
  auto st = eng.status();
  EXPECT_EQ(st[0].events, 0u);
  EXPECT_EQ(st[1].events, 1u);  // unfiltered latency spec sees every model

  *t += 1.0;
  eng.record("a", 0.0, true, false);
  *t += 1.0;
  eng.record_dropped("a");  // availability bad event; latency spec unchanged
  st = eng.status();
  EXPECT_EQ(st[0].events, 2u);
  EXPECT_EQ(st[0].bad_events, 1u);
  EXPECT_EQ(st[1].events, 2u);
  EXPECT_EQ(st[1].bad_events, 0u);
}

TEST(SloEngine, PublishesGaugeAndCounterFamilies) {
  auto t = std::make_shared<double>(0.0);
  obs::MetricsRegistry reg;
  obs::SloEngine eng({availability_spec()}, nullptr, &reg, fake_clock(t));
  for (int i = 0; i < 100; ++i) {
    *t += 1.0;
    eng.record("m", 0.0, false, false);
  }
  auto st = eng.evaluate();

  auto snap = reg.snapshot();
  const auto fast = snap.gauges.find("slo.burn_rate{slo=\"avail\",window=\"fast\"}");
  ASSERT_NE(fast, snap.gauges.end());
  EXPECT_NEAR(fast->second, st[0].fast_burn, 1e-9);
  EXPECT_TRUE(snap.gauges.count("slo.burn_rate{slo=\"avail\",window=\"mid\"}"));
  EXPECT_TRUE(snap.gauges.count("slo.burn_rate{slo=\"avail\",window=\"slow\"}"));
  const auto burning = snap.gauges.find("slo.burning{slo=\"avail\"}");
  ASSERT_NE(burning, snap.gauges.end());
  EXPECT_DOUBLE_EQ(burning->second, 1.0);
  EXPECT_EQ(snap.counters.at("slo.events{slo=\"avail\"}"), 100u);
  EXPECT_EQ(snap.counters.at("slo.bad_events{slo=\"avail\"}"), 100u);
  EXPECT_EQ(snap.counters.at("slo.alerts{slo=\"avail\"}"), st[0].alerts_raised);
}

TEST(SloEngine, StatusJsonListsEverySpec) {
  auto t = std::make_shared<double>(0.0);
  obs::SloSpec lat;
  lat.name = "p99";
  lat.kind = obs::SloKind::kLatency;
  lat.threshold_seconds = 0.25;
  obs::SloEngine eng({availability_spec(), lat}, nullptr, nullptr, fake_clock(t));
  *t += 1.0;
  eng.record("m", 0.5, true, false);

  const std::string json = eng.status_json();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"avail\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("availability"), std::string::npos);
  EXPECT_NE(json.find("latency"), std::string::npos);
  EXPECT_NE(json.find("burning"), std::string::npos);
}

TEST(SloEngine, RecordIsThreadSafe) {
  auto t = std::make_shared<double>(0.0);
  obs::AlertSink sink;
  obs::MetricsRegistry reg;
  obs::SloEngine eng({availability_spec()}, &sink, &reg, fake_clock(t));
  eng.set_eval_every(8);  // exercise the inline evaluation path under racing

  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&eng, w] {
      for (int i = 0; i < kPerThread; ++i) {
        eng.record("m", 0.0, (i + w) % 2 == 0, false);
      }
    });
  }
  for (auto& th : workers) th.join();
  auto st = eng.evaluate();
  EXPECT_EQ(st[0].events, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(st[0].bad_events, st[0].events / 2);
}

// ---------------------------------------------------------------------------
// HttpServer

// Minimal raw-socket HTTP client: one request, read to EOF.
std::string http_request(std::uint16_t port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::size_t off = 0;
  while (off < raw.size()) {
    const ssize_t n = ::send(fd, raw.data() + off, raw.size() - off, 0);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

std::string http_get(std::uint16_t port, const std::string& path,
                     const std::string& method = "GET") {
  return http_request(port, method + " " + path +
                                " HTTP/1.1\r\nHost: test\r\n\r\n");
}

TEST(HttpServer, ServesRoutesOnAnEphemeralPort) {
  obs::HttpServer server;
  server.add_route("/ping", [](const obs::HttpRequest& req, obs::HttpResponse& res) {
    res.body = "pong query=" + req.query;
  });
  ASSERT_TRUE(server.start());
  ASSERT_TRUE(server.running());
  const std::uint16_t port = server.port();
  ASSERT_NE(port, 0);

  const std::string res = http_get(port, "/ping?x=1");
  EXPECT_NE(res.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(res.find("Connection: close"), std::string::npos);
  EXPECT_NE(res.find("pong query=x=1"), std::string::npos);
  server.stop();
  EXPECT_FALSE(server.running());
  EXPECT_GE(server.requests_served(), 1u);
}

TEST(HttpServer, UnknownPathIs404AndNonGetIs405) {
  obs::HttpServer server;
  server.add_route("/ok", [](const obs::HttpRequest&, obs::HttpResponse& res) {
    res.body = "ok";
  });
  ASSERT_TRUE(server.start());
  EXPECT_NE(http_get(server.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/ok", "POST").find("HTTP/1.1 405"),
            std::string::npos);
  // Garbage that is not an HTTP request line gets a 400.
  EXPECT_NE(http_request(server.port(), "nonsense\r\n\r\n").find("HTTP/1.1 400"),
            std::string::npos);
}

TEST(HttpServer, HeadReturnsHeadersWithoutBody) {
  obs::HttpServer server;
  server.add_route("/m", [](const obs::HttpRequest&, obs::HttpResponse& res) {
    res.body = "BODYBYTES";
  });
  ASSERT_TRUE(server.start());
  const std::string res = http_get(server.port(), "/m", "HEAD");
  EXPECT_NE(res.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(res.find("Content-Length: 9"), std::string::npos);
  EXPECT_EQ(res.find("BODYBYTES"), std::string::npos);
}

TEST(HttpServer, StopDrainsAndConcurrentRequestsAllComplete) {
  obs::HttpServer server;
  server.add_route("/slow", [](const obs::HttpRequest&, obs::HttpResponse& res) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    res.body = "done";
  });
  ASSERT_TRUE(server.start());
  const std::uint16_t port = server.port();

  constexpr int kClients = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> responses(kClients);
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back(
        [port, i, &responses] { responses[i] = http_get(port, "/slow"); });
  }
  for (auto& th : clients) th.join();
  for (const std::string& res : responses) {
    EXPECT_NE(res.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(res.find("done"), std::string::npos);
  }
  EXPECT_EQ(server.requests_served(), static_cast<std::uint64_t>(kClients));
  server.stop();
  server.stop();  // idempotent
}

TEST(HttpServer, RestartAfterStopBindsAgain) {
  obs::HttpServer server;
  server.add_route("/x", [](const obs::HttpRequest&, obs::HttpResponse& res) {
    res.body = "x";
  });
  ASSERT_TRUE(server.start());
  server.stop();
  ASSERT_TRUE(server.start());
  EXPECT_NE(http_get(server.port(), "/x").find("HTTP/1.1 200"),
            std::string::npos);
}

}  // namespace
