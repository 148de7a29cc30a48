package tsdb

import (
	"encoding/json"
	"net/http"
	"strings"
)

// Panel is one chart: a title and the series it draws, as exact names
// or '*' globs.
type Panel struct {
	Title  string   `json:"title"`
	Series []string `json:"series"`
}

// Panels is the chart table of a run's vital signs. The dashboard draws
// it live; middleplot draws the panels a dump has series for.
var Panels = []Panel{
	{"Global model", []string{"hfl_global_accuracy"}},
	{"Round duration p99 (s)", []string{"sim_round_seconds_p99", `fednet_rpc_seconds_p99{op="cloud_round"}`}},
	{"Per-edge divergence", []string{"hfl_edge_divergence{*"}},
	{"Similarity utility p50 (Eq. 12 selection, Eq. 9 blend)", []string{"hfl_selection_utility_p50", "hfl_blend_utility_p50"}},
	{"Mobility (moves, handovers)", []string{"sim_moves_total", "fednet_migrations_total{*"}},
	{"Handover latency (s)", []string{"fednet_handover_seconds_p99", "fednet_handover_seconds_p50", "fednet_handover_seconds_count"}},
	{"Faults, retries, rejects", []string{"*retries_total", "fednet_injected_faults_total{*", "robust_rejected_updates_total*",
		"fednet_quorum_misses_total", "hfl_adversary_corruptions_total"}},
	{"Membership (epoch, failovers, re-homes)", []string{"fednet_membership_epoch", "fednet_edge_failovers_total",
		"fednet_rehomed_devices_total", "fednet_stranded_devices", "fednet_lease_misses_total", "fednet_stale_frames_total"}},
	{"Memory (bytes)", []string{"process_peak_rss_bytes", "process_heap_inuse_bytes"}},
	{"Series", []string{"obs_series", "tsdb_series", "tsdb_dropped_series_total"}},
	{"Participation", []string{"hfl_participating_devices", "sim_round_seconds_count"}},
}

// DashboardHandler serves the embedded live dashboard: a single
// zero-dependency HTML+JS page that polls /api/query and /api/alerts
// and renders one canvas line chart per entry of Panels. No external
// assets, no frameworks: the page works from an air-gapped lab host.
func (s *Store) DashboardHandler() http.Handler {
	panels, _ := json.Marshal(Panels) // a table of strings always encodes
	page := []byte(strings.Replace(dashboardHTML, "PANELS_JSON", string(panels), 1))
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(page)
	})
}

// dashboardHTML is the whole dashboard. Chart colors follow the
// repo's validated palette: categorical slots (blue, orange, aqua) in
// fixed order, status colors reserved for the alert banner, text in
// ink tokens — never the series color. Light and dark are separate
// validated sets selected via prefers-color-scheme.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>middle dashboard</title>
<style>
:root {
  --surface: #fcfcfb; --panel: #ffffff; --grid: #e1e0d9;
  --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --cat-1: #2a78d6; --cat-2: #eb6834; --cat-3: #1baf7a;
  --good: #0ca30c; --warning: #fab219; --serious: #ec835a; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --panel: #222221; --grid: #2c2c2a;
    --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --cat-1: #3987e5; --cat-2: #d95926; --cat-3: #199e70;
  }
}
* { box-sizing: border-box; margin: 0; }
body {
  background: var(--surface); color: var(--ink);
  font: 13px/1.45 system-ui, sans-serif; padding: 16px;
}
h1 { font-size: 16px; font-weight: 600; }
header { display: flex; align-items: baseline; gap: 12px; margin-bottom: 12px; }
header .sub { color: var(--ink-2); }
#alerts { margin: 0 0 12px; display: flex; flex-direction: column; gap: 6px; }
.alert {
  border-left: 3px solid var(--critical); background: var(--panel);
  border-radius: 4px; padding: 6px 10px; display: flex; gap: 8px;
}
.alert.ok { border-left-color: var(--good); color: var(--ink-2); }
.alert .badge { font-weight: 600; }
.alert.firing .badge { color: var(--critical); }
.alert.ok .badge { color: var(--good); }
.grid { display: grid; grid-template-columns: repeat(auto-fit, minmax(380px, 1fr)); gap: 12px; }
.panel { background: var(--panel); border: 1px solid var(--grid); border-radius: 6px; padding: 10px 12px; }
.panel h2 { font-size: 13px; font-weight: 600; margin-bottom: 2px; }
.panel .legend { color: var(--ink-2); font-size: 12px; margin-bottom: 6px; min-height: 16px; }
.legend span { margin-right: 12px; white-space: nowrap; }
.legend i { display: inline-block; width: 10px; height: 2px; vertical-align: middle; margin-right: 4px; }
canvas { width: 100%; height: 160px; display: block; }
.empty { color: var(--ink-3); font-size: 12px; padding: 60px 0; text-align: center; }
footer { margin-top: 12px; color: var(--ink-3); font-size: 12px; }
</style>
</head>
<body>
<header>
  <h1>middle &mdash; live run</h1>
  <span class="sub" id="meta">connecting&hellip;</span>
</header>
<div id="alerts"></div>
<div class="grid" id="panels"></div>
<footer>polls /api/query every 2s &middot; <a href="/metrics" style="color:var(--ink-2)">/metrics</a> &middot; <a href="/status" style="color:var(--ink-2)">/status</a> &middot; <a href="/api/series" style="color:var(--ink-2)">/api/series</a></footer>
<script>
"use strict";
// Panels (tsdb.Panels): each pulls a set of series patterns and draws
// them on one canvas with a shared y-axis. Colors come from the categorical slots
// in fixed order; more matches than slots fold into the last slot.
var PANELS = PANELS_JSON;
var css = getComputedStyle(document.documentElement);
function tok(n) { return css.getPropertyValue(n).trim(); }
var CAT = [tok("--cat-1"), tok("--cat-2"), tok("--cat-3")];

var panelEls = [];
var grid = document.getElementById("panels");
PANELS.forEach(function (p) {
  var div = document.createElement("div");
  div.className = "panel";
  div.innerHTML = "<h2></h2><div class=\"legend\"></div><canvas></canvas>";
  div.querySelector("h2").textContent = p.title;
  grid.appendChild(div);
  panelEls.push({ cfg: p, el: div, canvas: div.querySelector("canvas"), legend: div.querySelector(".legend") });
});

function fmt(v) {
  if (v === null || v === undefined) return "-";
  var a = Math.abs(v);
  if (a >= 1073741824) return (v / 1073741824).toFixed(1) + "G";
  if (a >= 1048576) return (v / 1048576).toFixed(1) + "M";
  if (a >= 1000) return (v / 1000).toFixed(1) + "k";
  if (a >= 10 || a === 0 || Number.isInteger(v)) return String(Math.round(v * 100) / 100);
  return v.toPrecision(3);
}

function draw(p, seriesList) {
  var cv = p.canvas, dpr = window.devicePixelRatio || 1;
  var W = cv.clientWidth, H = cv.clientHeight;
  cv.width = W * dpr; cv.height = H * dpr;
  var ctx = cv.getContext("2d");
  ctx.scale(dpr, dpr);
  ctx.clearRect(0, 0, W, H);
  var withData = seriesList.filter(function (s) { return s.points.length > 0; });
  if (withData.length === 0) {
    ctx.fillStyle = tok("--ink-3");
    ctx.font = "12px system-ui";
    ctx.textAlign = "center";
    ctx.fillText("no data yet", W / 2, H / 2);
    p.legend.textContent = "";
    return;
  }
  var t0 = Infinity, t1 = -Infinity, v0 = Infinity, v1 = -Infinity;
  withData.forEach(function (s) {
    s.points.forEach(function (pt) {
      if (pt[1] === null) return;
      if (pt[0] < t0) t0 = pt[0];
      if (pt[0] > t1) t1 = pt[0];
      if (pt[1] < v0) v0 = pt[1];
      if (pt[1] > v1) v1 = pt[1];
    });
  });
  if (!isFinite(v0)) { v0 = 0; v1 = 1; }
  if (v1 - v0 < 1e-12) { v1 = v0 + 1; v0 = v0 - (v0 === 0 ? 0 : 1e-12); if (v1 === v0) v1 = v0 + 1; }
  if (t1 === t0) t1 = t0 + 1;
  var padL = 44, padR = 6, padT = 6, padB = 16;
  var x = function (t) { return padL + (t - t0) / (t1 - t0) * (W - padL - padR); };
  var y = function (v) { return padT + (1 - (v - v0) / (v1 - v0)) * (H - padT - padB); };
  // Recessive grid: three horizontal rules + y tick labels in muted ink.
  ctx.strokeStyle = tok("--grid");
  ctx.fillStyle = tok("--ink-3");
  ctx.font = "10px system-ui";
  ctx.textAlign = "right";
  ctx.lineWidth = 1;
  [0, 0.5, 1].forEach(function (f) {
    var vy = y(v0 + f * (v1 - v0));
    ctx.beginPath(); ctx.moveTo(padL, vy); ctx.lineTo(W - padR, vy); ctx.stroke();
    ctx.fillText(fmt(v0 + f * (v1 - v0)), padL - 4, vy + 3);
  });
  ctx.textAlign = "center";
  ctx.fillText(Math.round((t1 - t0) / 1000) + "s window", (padL + W - padR) / 2, H - 3);
  // Thin 2px lines, one categorical slot per series in fixed order.
  withData.forEach(function (s, i) {
    ctx.strokeStyle = CAT[Math.min(i, CAT.length - 1)];
    ctx.lineWidth = 2;
    ctx.beginPath();
    var started = false;
    s.points.forEach(function (pt) {
      if (pt[1] === null) { started = false; return; }
      if (!started) { ctx.moveTo(x(pt[0]), y(pt[1])); started = true; }
      else ctx.lineTo(x(pt[0]), y(pt[1]));
    });
    ctx.stroke();
  });
  // Legend: identity never rides on color alone — name + last value.
  p.legend.innerHTML = "";
  withData.slice(0, 6).forEach(function (s, i) {
    var span = document.createElement("span");
    var sw = document.createElement("i");
    sw.style.background = CAT[Math.min(i, CAT.length - 1)];
    span.appendChild(sw);
    var last = s.points.length ? s.points[s.points.length - 1][1] : null;
    span.appendChild(document.createTextNode(s.name + " " + fmt(last)));
    p.legend.appendChild(span);
  });
  if (withData.length > 6) {
    var more = document.createElement("span");
    more.textContent = "+" + (withData.length - 6) + " more";
    p.legend.appendChild(more);
  }
}

function refresh() {
  panelEls.forEach(function (p) {
    var qs = p.cfg.series.map(function (s) { return "series=" + encodeURIComponent(s); }).join("&");
    fetch("/api/query?" + qs).then(function (r) { return r.json(); }).then(function (doc) {
      draw(p, doc.series || []);
      document.getElementById("meta").textContent =
        "updated " + new Date(doc.now).toLocaleTimeString();
    }).catch(function () {});
  });
  fetch("/api/alerts").then(function (r) {
    if (!r.ok) throw new Error("no slo");
    return r.json();
  }).then(function (doc) {
    var box = document.getElementById("alerts");
    box.innerHTML = "";
    var alerts = doc.alerts || [];
    var firing = alerts.filter(function (a) { return a.state === "firing"; });
    if (alerts.length === 0) return;
    if (firing.length === 0) {
      var ok = document.createElement("div");
      ok.className = "alert ok";
      ok.innerHTML = "<span class=\"badge\">&#10003; healthy</span><span></span>";
      ok.lastChild.textContent = alerts.length + " SLO rules evaluated, none firing";
      box.appendChild(ok);
      return;
    }
    firing.forEach(function (a) {
      var div = document.createElement("div");
      div.className = "alert firing";
      div.innerHTML = "<span class=\"badge\">&#9888; " + "</span><span></span>";
      div.firstChild.textContent = "⚠ " + a.name;
      div.lastChild.textContent = a.detail || "";
      box.appendChild(div);
    });
  }).catch(function () {});
}
refresh();
setInterval(refresh, 2000);
</script>
</body>
</html>
`
