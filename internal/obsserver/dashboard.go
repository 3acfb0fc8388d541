package obsserver

import "net/http"

// handleDashboard serves the embedded live dashboard: a single self-contained
// HTML page (no external assets, no JS dependencies) that renders sweep
// progress from the same three read-only endpoints any curl user sees —
// /status polled for tiles and panels, /events streamed for the sparkline
// tracks (reconnects run under jittered exponential backoff and resume with
// ?last-event-id=, exercising the bus replay ring), and /runs polled for the
// campaign-ledger table.
func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Write([]byte(dashboardHTML))
}

// dashboardHTML is the whole dashboard. Styling notes: dark ops surface;
// series colors are validated categorical slots (blue for IPC, orange for
// power — one series per chart, so the card title is the legend); status
// colors (good/warning/critical) are reserved for state and always paired
// with a text label, never color alone; all text wears ink tokens, never a
// series color. The run table is the no-chart view of the same data.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>power10sim dashboard</title>
<meta name="viewport" content="width=device-width, initial-scale=1">
<style>
:root {
  color-scheme: dark;
  --page:       #0d0d0d;
  --surface:    #1a1a19;
  --ink:        #ffffff;
  --ink-2:      #c3c2b7;
  --muted:      #898781;
  --grid:       #2c2c2a;
  --border:     rgba(255,255,255,0.10);
  --series-ipc: #3987e5;  /* categorical slot 1, dark step */
  --series-pow: #d95926;  /* categorical slot 2, dark step */
  --meter-track:#184f95;  /* lighter-use step of the blue ramp for dark */
  --good:       #0ca30c;
  --warning:    #fab219;
  --critical:   #d03b3b;
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 16px 20px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
header { display: flex; align-items: baseline; gap: 12px; margin-bottom: 14px; }
header h1 { font-size: 16px; font-weight: 600; margin: 0; }
header .sub { color: var(--muted); font-size: 12px; }
#conn { font-size: 12px; color: var(--muted); margin-left: auto; }
#conn.live::before { content: "● "; color: var(--good); }
#conn.down::before { content: "● "; color: var(--critical); }
.tiles { display: grid; grid-template-columns: repeat(auto-fit, minmax(150px, 1fr)); gap: 10px; margin-bottom: 12px; }
.tile { background: var(--surface); border: 1px solid var(--border); border-radius: 8px; padding: 10px 12px; }
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; margin-top: 2px; }
.tile .note { color: var(--muted); font-size: 11px; margin-top: 2px; }
.grid2 { display: grid; grid-template-columns: 1fr 1fr; gap: 10px; margin-bottom: 12px; }
@media (max-width: 860px) { .grid2 { grid-template-columns: 1fr; } }
.card { background: var(--surface); border: 1px solid var(--border); border-radius: 8px; padding: 10px 12px; position: relative; }
.card h2 { font-size: 12px; font-weight: 600; color: var(--ink-2); margin: 0 0 6px; }
.card h2 .dot { display: inline-block; width: 8px; height: 8px; border-radius: 50%; margin-right: 5px; vertical-align: baseline; }
svg.spark { display: block; width: 100%; height: 88px; }
.spark-empty { color: var(--muted); font-size: 12px; height: 88px; display: flex; align-items: center; }
#tooltip { position: fixed; pointer-events: none; display: none; background: var(--page);
  border: 1px solid var(--border); border-radius: 6px; padding: 5px 8px; font-size: 12px; z-index: 10; }
#tooltip .tl { color: var(--ink-2); }
table { width: 100%; border-collapse: collapse; font-size: 12.5px; }
th { text-align: left; color: var(--muted); font-weight: 500; padding: 3px 8px 3px 0; border-bottom: 1px solid var(--grid); }
td { padding: 3px 8px 3px 0; border-bottom: 1px solid var(--grid); color: var(--ink-2); }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.state { font-size: 12px; }
.state.done::before { content: "✓ "; color: var(--good); }
.state.running::before { content: "▸ "; color: var(--warning); }
.state.failed::before { content: "✕ "; color: var(--critical); }
.meter { height: 8px; border-radius: 4px; background: var(--meter-track); overflow: hidden; margin-top: 6px; }
.meter > div { height: 100%; border-radius: 4px; background: var(--series-ipc); width: 0; }
.faillist { margin: 0; padding: 0; list-style: none; font-size: 12.5px; }
.faillist li { padding: 3px 0; border-bottom: 1px solid var(--grid); color: var(--ink-2); }
.faillist li::before { content: "✕ failed "; color: var(--critical); }
.faillist .err { color: var(--muted); }
.empty { color: var(--muted); font-size: 12px; }
footer { color: var(--muted); font-size: 11px; margin-top: 10px; }
</style>
</head>
<body>
<header>
  <h1>power10sim</h1>
  <span class="sub" id="cmd"></span>
  <span id="conn">connecting…</span>
</header>

<div class="tiles">
  <div class="tile"><div class="label">Experiments done</div><div class="value" id="t-exp">–</div><div class="note" id="t-exp-note"></div></div>
  <div class="tile"><div class="label">Sims finished</div><div class="value" id="t-fin">–</div><div class="note" id="t-fin-note"></div></div>
  <div class="tile"><div class="label">Cache hit rate</div><div class="value" id="t-hit">–</div><div class="note" id="t-hit-note"></div><div class="meter"><div id="t-hit-bar"></div></div></div>
  <div class="tile"><div class="label">Failures</div><div class="value" id="t-fail">–</div><div class="note" id="t-fail-note"></div></div>
  <div class="tile"><div class="label">Ledger records</div><div class="value" id="t-led">–</div><div class="note" id="t-led-note"></div></div>
  <div class="tile" id="t-sur-tile" style="display:none"><div class="label">Surrogate predictions</div><div class="value" id="t-sur">–</div><div class="note" id="t-sur-note"></div></div>
  <div class="tile" id="t-fab-tile" style="display:none"><div class="label">Fabric workers</div><div class="value" id="t-fab">–</div><div class="note" id="t-fab-note"></div></div>
  <div class="tile" id="t-rec-tile" style="display:none"><div class="label">Fabric recovery</div><div class="value" id="t-rec">–</div><div class="note" id="t-rec-note"></div></div>
</div>

<div class="grid2">
  <div class="card">
    <h2><span class="dot" style="background:var(--series-ipc)"></span>IPC — finished sims, oldest → newest</h2>
    <div id="ipc-holder"><div class="spark-empty">waiting for sim_finished events…</div></div>
  </div>
  <div class="card">
    <h2><span class="dot" style="background:var(--series-pow)"></span>Power (W model units) — finished sims</h2>
    <div id="pow-holder"><div class="spark-empty">waiting for sim_finished events…</div></div>
  </div>
</div>

<div class="grid2">
  <div class="card">
    <h2>Experiments</h2>
    <div id="exp-holder"><div class="empty">no experiments yet</div></div>
  </div>
  <div class="card">
    <h2>Recent failures</h2>
    <div id="fail-holder"><div class="empty">none</div></div>
  </div>
</div>

<div class="card" id="fab-card" style="display:none">
  <h2>Distributed fabric — worker fleet</h2>
  <div id="fab-holder"><div class="empty">no workers registered</div></div>
</div>

<div class="card">
  <h2>Campaign ledger — recent runs</h2>
  <div id="runs-holder"><div class="empty">no runlog attached (start with -runlog DIR)</div></div>
</div>

<div id="tooltip"></div>
<footer id="build"></footer>

<script>
"use strict";
var MAXPTS = 120;
var ipcPts = [], powPts = [];
var tooltip = document.getElementById("tooltip");

function fmt(v, d) { return (v == null || isNaN(v)) ? "–" : v.toFixed(d == null ? 2 : d); }
function esc(s) {
  return String(s).replace(/[&<>"]/g, function (c) {
    return { "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;" }[c];
  });
}

/* --- sparkline: 2px line, 10% area wash, 8px end-dot with 2px surface ring,
       nearest-point hover tooltip --- */
function spark(holderId, pts, color, digits) {
  var holder = document.getElementById(holderId);
  if (!pts.length) return;
  var W = holder.clientWidth || 400, H = 88, pad = 8;
  var min = Infinity, max = -Infinity, i;
  for (i = 0; i < pts.length; i++) {
    if (pts[i].v < min) min = pts[i].v;
    if (pts[i].v > max) max = pts[i].v;
  }
  if (min === max) { min -= 0.5; max += 0.5; }
  var xs = [], ys = [];
  for (i = 0; i < pts.length; i++) {
    xs.push(pts.length === 1 ? W / 2 : pad + (W - 2 * pad) * i / (pts.length - 1));
    ys.push(H - pad - (H - 2 * pad) * (pts[i].v - min) / (max - min));
  }
  var line = "", area = "M" + xs[0] + "," + (H - 2);
  for (i = 0; i < pts.length; i++) {
    line += (i ? "L" : "M") + xs[i].toFixed(1) + "," + ys[i].toFixed(1);
    area += "L" + xs[i].toFixed(1) + "," + ys[i].toFixed(1);
  }
  area += "L" + xs[xs.length - 1] + "," + (H - 2) + "Z";
  var lastX = xs[xs.length - 1], lastY = ys[ys.length - 1];
  var html = '<svg class="spark" viewBox="0 0 ' + W + " " + H + '" preserveAspectRatio="none">' +
    '<line x1="0" y1="' + (H - 2) + '" x2="' + W + '" y2="' + (H - 2) + '" stroke="var(--grid)" stroke-width="1"/>' +
    '<path d="' + area + '" fill="' + color + '" opacity="0.10"/>' +
    '<path d="' + line + '" fill="none" stroke="' + color + '" stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>' +
    '<circle cx="' + lastX + '" cy="' + lastY + '" r="6" fill="var(--surface)"/>' +
    '<circle cx="' + lastX + '" cy="' + lastY + '" r="4" fill="' + color + '"/>' +
    '<text x="' + (W - pad) + '" y="12" text-anchor="end" fill="var(--ink)" font-size="12">' + fmt(pts[pts.length - 1].v, digits) + "</text>" +
    "</svg>";
  holder.innerHTML = html;
  var svg = holder.firstChild;
  svg.addEventListener("mousemove", function (e) {
    var r = svg.getBoundingClientRect();
    var x = (e.clientX - r.left) * (W / r.width), best = 0, bd = Infinity;
    for (var j = 0; j < xs.length; j++) {
      var d = Math.abs(xs[j] - x);
      if (d < bd) { bd = d; best = j; }
    }
    tooltip.innerHTML = '<span class="tl">' + esc(pts[best].label) + "</span> " + fmt(pts[best].v, digits);
    tooltip.style.display = "block";
    tooltip.style.left = (e.clientX + 12) + "px";
    tooltip.style.top = (e.clientY - 10) + "px";
  });
  svg.addEventListener("mouseleave", function () { tooltip.style.display = "none"; });
}

var redrawQueued = false;
function queueRedraw() {
  if (redrawQueued) return;
  redrawQueued = true;
  requestAnimationFrame(function () {
    redrawQueued = false;
    spark("ipc-holder", ipcPts, "var(--series-ipc)", 3);
    spark("pow-holder", powPts, "var(--series-pow)", 2);
  });
}

/* --- live events over SSE with explicit reconnect management: the browser's
       built-in EventSource retry is a fixed short interval and only its
       automatic reconnects carry Last-Event-ID, so a server restart turns
       into a hammering loop with a blind gap. Instead each error closes the
       source and schedules a fresh one under jittered exponential backoff
       (0.5s doubling to a 30s ceiling, ±50% jitter so parked dashboards
       don't reconnect in lockstep), passing the last seen event id as
       ?last-event-id= for the server's replay-ring backfill. The connection
       badge shows a live countdown while down. --- */
var failures = [];
var conn = document.getElementById("conn");
var es = null, lastEventId = 0, esAttempt = 0, esTimer = null;

function connect() {
  if (es) { es.close(); }
  es = new EventSource("/events" + (lastEventId ? "?last-event-id=" + lastEventId : ""));
  es.onopen = function () {
    esAttempt = 0;
    conn.textContent = "live"; conn.className = "live";
  };
  es.onerror = function () { scheduleReconnect(); };
  es.addEventListener("sim_finished", function (e) {
    lastEventId = +e.lastEventId || lastEventId;
    var ev = JSON.parse(e.data);
    if (ev.ipc) {
      ipcPts.push({ v: ev.ipc, label: ev.sim || "" });
      if (ipcPts.length > MAXPTS) ipcPts.shift();
    }
    if (ev.power) {
      powPts.push({ v: ev.power, label: ev.sim || "" });
      if (powPts.length > MAXPTS) powPts.shift();
    }
    queueRedraw();
  });
  es.addEventListener("sim_failed", function (e) {
    lastEventId = +e.lastEventId || lastEventId;
    var ev = JSON.parse(e.data);
    failures.unshift(ev);
    if (failures.length > 8) failures.pop();
    var h = "";
    for (var i = 0; i < failures.length; i++) {
      h += "<li>" + esc(failures[i].sim || "?") + ' <span class="err">' + esc(failures[i].error || "") + "</span></li>";
    }
    document.getElementById("fail-holder").innerHTML = '<ul class="faillist">' + h + "</ul>";
  });
}

function scheduleReconnect() {
  if (es) { es.close(); es = null; }
  if (esTimer) return; // one pending reconnect at a time
  esAttempt++;
  var base = Math.min(30000, 500 * Math.pow(2, esAttempt - 1));
  var delay = base / 2 + Math.random() * base / 2;
  var until = Date.now() + delay;
  conn.className = "down";
  var tick = setInterval(function () {
    var left = Math.max(0, until - Date.now());
    conn.textContent = "reconnecting in " + (left / 1000).toFixed(0) + "s (attempt " + esAttempt + ")";
  }, 250);
  conn.textContent = "reconnecting in " + (delay / 1000).toFixed(0) + "s (attempt " + esAttempt + ")";
  esTimer = setTimeout(function () {
    clearInterval(tick);
    esTimer = null;
    conn.textContent = "connecting…";
    connect();
  }, delay);
}

connect();

/* --- /status poll: tiles, experiments, cache, build footer --- */
function poll() {
  fetch("/status").then(function (r) { return r.json(); }).then(function (st) {
    document.getElementById("cmd").textContent =
      (st.command || "") + " · up " + fmt(st.uptime_seconds, 0) + "s" + (st.sweep_done ? " · sweep done" : "");
    var done = 0, exps = st.experiments || [];
    for (var i = 0; i < exps.length; i++) if (exps[i].state === "done") done++;
    document.getElementById("t-exp").textContent = done + "/" + exps.length;
    document.getElementById("t-exp-note").textContent = st.ready ? "plan ready" : "planning";
    document.getElementById("t-fin").textContent = st.sims.finished;
    document.getElementById("t-fin-note").textContent = st.sims.started + " started · " + st.sims.retried + " retried";
    var run = st.runner || {};
    var hits = (run.cache_hits || 0) + (run.disk_hits || 0);
    var served = hits + (run.unique_runs || 0);
    var rate = served ? 100 * hits / served : 0;
    document.getElementById("t-hit").textContent = served ? rate.toFixed(1) + "%" : "–";
    document.getElementById("t-hit-note").textContent =
      (run.cache_hits || 0) + " memo · " + (run.disk_hits || 0) + " disk · " + (run.unique_runs || 0) + " run";
    document.getElementById("t-hit-bar").style.width = rate.toFixed(1) + "%";
    document.getElementById("t-fail").textContent = st.failures;
    document.getElementById("t-fail-note").textContent = st.sims.failed + " sim-level";
    var rl = st.runlog;
    document.getElementById("t-led").textContent = rl ? rl.records_appended : "off";
    document.getElementById("t-led-note").textContent =
      rl ? (rl.bytes_appended + " B") : "start with -runlog DIR";
    if (exps.length) {
      var h = "<table><tr><th>experiment</th><th>state</th><th class=num>elapsed</th></tr>";
      for (i = 0; i < exps.length; i++) {
        h += "<tr><td>" + esc(exps[i].name) + '</td><td><span class="state ' + esc(exps[i].state) + '">' +
          esc(exps[i].state) + "</span></td><td class=num>" + fmt(exps[i].elapsed_seconds, 1) + "s</td></tr>";
      }
      document.getElementById("exp-holder").innerHTML = h + "</table>";
    }
    /* surrogate tile only appears once the learned tier has served or
       declined at least one request (a runner without a model never shows it) */
    var pred = (run.surrogate_predictions || 0), fell = (run.surrogate_fallthroughs || 0);
    if (pred + fell > 0) {
      document.getElementById("t-sur-tile").style.display = "";
      document.getElementById("t-sur").textContent = pred;
      var gated = pred + fell;
      document.getElementById("t-sur-note").textContent =
        fell + " fell through · " + (100 * pred / gated).toFixed(1) + "% served";
    }
    /* fleet tile + worker table only appear when a fabric coordinator is
       wired into this server (p10coord); plain p10bench never shows them */
    var fab = st.fabric;
    if (fab) {
      document.getElementById("t-fab-tile").style.display = "";
      document.getElementById("t-rec-tile").style.display = "";
      document.getElementById("fab-card").style.display = "";
      var ws = fab.workers || [], live = 0;
      for (i = 0; i < ws.length; i++) if (ws[i].state === "live") live++;
      document.getElementById("t-fab").textContent = live + "/" + ws.length;
      var q = fab.queue || {};
      document.getElementById("t-fab-note").textContent =
        (q.pending || 0) + " pending · " + (q.leased || 0) + " leased · " + (q.requeues || 0) + " requeued";
      document.getElementById("t-rec").textContent = q.requeues || 0;
      document.getElementById("t-rec-note").textContent =
        (q.duplicates || 0) + " duplicate · " + (q.corrupt_results || 0) + " corrupt";
      if (ws.length) {
        var fh = "<table><tr><th>worker</th><th>state</th><th class=num>slots</th>" +
          "<th class=num>leased</th><th class=num>completed</th><th class=num>failed</th><th class=num>last seen</th></tr>";
        for (i = 0; i < ws.length; i++) {
          var wst = ws[i].state === "live" ? "running" : (ws[i].state === "lost" ? "failed" : "done");
          fh += "<tr><td>" + esc(ws[i].name) + '</td><td><span class="state ' + wst + '">' +
            esc(ws[i].state) + "</span></td><td class=num>" + ws[i].workers +
            "</td><td class=num>" + ws[i].leased + "</td><td class=num>" + ws[i].completed +
            "</td><td class=num>" + ws[i].failed + "</td><td class=num>" +
            fmt(ws[i].last_seen_seconds, 1) + "s</td></tr>";
        }
        fh += "</table>";
        fh += '<div class="empty" style="margin-top:6px">queue: ' + (q.done || 0) + " done · " +
          (q.failed || 0) + " failed · " + (q.duplicates || 0) + " duplicate results · " +
          (q.corrupt_results || 0) + " corrupt</div>";
        document.getElementById("fab-holder").innerHTML = fh;
      }
    }
    var b = st.build || {};
    document.getElementById("build").textContent =
      (b.go_version || "") + (b.vcs_revision ? " · " + b.vcs_revision.slice(0, 12) + (b.vcs_modified ? " (modified)" : "") : "");
  }).catch(function () {});
}

/* --- /runs poll: the table view of the ledger feed --- */
function pollRuns() {
  fetch("/runs?n=15").then(function (r) { return r.json(); }).then(function (p) {
    if (!p.enabled) return;
    var recs = p.records || [];
    if (!recs.length) {
      document.getElementById("runs-holder").innerHTML = '<div class="empty">ledger attached, no records yet</div>';
      return;
    }
    var h = "<table><tr><th class=num>seq</th><th>sim</th><th>tier</th>" +
      "<th class=num>IPC</th><th class=num>power</th><th class=num>EPI</th><th class=num>wall</th></tr>";
    for (var i = recs.length - 1; i >= 0; i--) {
      var r = recs[i];
      var sim = r.workload + "@" + r.config + "/smt" + r.smt;
      h += "<tr><td class=num>" + r.seq + "</td><td>" + esc(sim) + "</td><td>" +
        (r.error ? '<span class="state failed">error</span>' : esc(r.tier)) +
        "</td><td class=num>" + fmt(r.ipc, 3) + "</td><td class=num>" + fmt(r.power_total, 2) +
        "</td><td class=num>" + fmt(r.energy_per_inst, 2) + "</td><td class=num>" +
        fmt(r.wall_seconds, 2) + "s</td></tr>";
    }
    document.getElementById("runs-holder").innerHTML = h + "</table>";
  }).catch(function () {});
}

poll(); pollRuns();
setInterval(poll, 2000);
setInterval(pollRuns, 5000);
</script>
</body>
</html>
`
