//! The open-loop serving workloads, `chat` and `rag`: requests due at jittered times at a
//! fixed rate from the seed, driven pass by pass through `ServingEngine::run_for(1)` on
//! the benchmark's own thread, which doubles as the engine's coordinator.

use std::thread;
use std::time::{Duration, Instant};

use mx_llm::{
    Event, FinishReason, ModelConfig, ModelQuantConfig, ServingEngine, SubmitOptions, TelemetryConfig, Trace,
    TransformerModel,
};

use crate::replay;
use crate::spans::{print_self_times, Tracer};
use crate::util::{fnv1a, mean, median, midmean, quantile, since, Metrics, Rng, FNV_OFFSET};
use crate::Outcome;

/// Share of the window's CPU time (all CPUs) the hypervisor may steal before the window
/// is run again.
const STEAL_LIMIT: f64 = 0.005;
/// Windows an untraced run may make: the first, and one more when the first was stolen.
const MAX_ATTEMPTS: usize = 2;

/// One serving workload: traffic shape, page budget and service-level limits.
pub struct ServeSpec {
    pub name: &'static str,
    /// Arrival rate, requests per second.
    pub rate: f64,
    /// Unique prompt tokens per request (the whole prompt on `chat`, the tail after the
    /// shared document on `rag`), inclusive range.
    pub prompt_len: (usize, usize),
    pub output_len: (usize, usize),
    /// Shared document prefixes; 0 means every prompt is unique.
    pub docs: usize,
    pub doc_len: (usize, usize),
    pub total_pages: usize,
    /// A request meets its service-level objective when its first token is visible within
    /// this many ms of its due time ...
    pub ttft_slo_ms: f64,
    /// ... and the mean gap between its output tokens is within this many ms. Both limits
    /// sit at 1.5–2.5 times the traced `serving.ttft_p80_ms` / `serving.request_gap_p80_ms`
    /// of a quiet 2-vCPU AVX2 host, so a few requests miss them and a slowdown shows.
    pub gap_slo_ms: f64,
}

pub fn spec(name: &str) -> Option<ServeSpec> {
    match name {
        "chat" => Some(ServeSpec {
            name: "chat",
            rate: 2.0,
            prompt_len: (16, 128),
            output_len: (32, 128),
            docs: 0,
            doc_len: (0, 0),
            total_pages: 4096,
            ttft_slo_ms: 300.0,
            gap_slo_ms: 9.0,
        }),
        "rag" => Some(ServeSpec {
            name: "rag",
            rate: 2.0,
            prompt_len: (16, 48),
            output_len: (16, 48),
            docs: 4,
            doc_len: (128, 160),
            total_pages: 4096,
            ttft_slo_ms: 1000.0,
            gap_slo_ms: 20.0,
        }),
        _ => None,
    }
}

impl ServeSpec {
    /// The workload's parameters, with the hypervisor steal time seen during each window
    /// attempt and which attempt was reported.
    pub fn params_json(&self, requests: usize, steal_s: &[f64], reported: usize) -> String {
        let steal_s = steal_s.iter().map(|s| format!("{s:.2}")).collect::<Vec<_>>().join(",");
        format!(
            "{{\"model\":\"Llama-3.1-8B analogue\",\"quant\":\"A-MXFP4+\",\"loop\":\"open\",\"rate_per_s\":{},\
             \"requests\":{requests},\"prompt_len\":[{},{}],\"output_len\":[{},{}],\"docs\":{},\"doc_len\":[{},{}],\
             \"total_pages\":{},\"ttft_slo_ms\":{},\"gap_slo_ms\":{},\"decoding\":\"greedy\",\
             \"steal_limit_frac\":{STEAL_LIMIT},\"window_steal_s\":[{steal_s}],\"reported_attempt\":{reported}}}",
            self.rate,
            self.prompt_len.0,
            self.prompt_len.1,
            self.output_len.0,
            self.output_len.1,
            self.docs,
            self.doc_len.0,
            self.doc_len.1,
            self.total_pages,
            self.ttft_slo_ms,
            self.gap_slo_ms,
        )
    }
}

pub struct Request {
    /// Seconds after the start of the measured window at which the request is sent.
    pub due_s: f64,
    pub prompt: Vec<usize>,
    pub max_new: usize,
}

/// The request schedule of one run, from the seed alone: `rate * seconds` requests, one
/// due at a uniformly random time within each of that many equal slots of the window
/// (jittered arrivals at a fixed rate; Poisson bursts made the number of sequences in
/// flight, and with it TPOT, differ too much from seed to seed). Lengths and documents
/// are stratified: every run draws the same evenly spaced spread of lengths over each
/// range, and each document equally often, in a seeded order, so seeds differ in timing
/// and token content but not in total work.
pub fn generate(spec: &ServeSpec, seed: u64, seconds: f64, vocab: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ fnv1a(FNV_OFFSET, &spec.name.bytes().map(usize::from).collect::<Vec<_>>()));
    let n = (spec.rate * seconds).ceil() as usize;
    let slot = seconds / n as f64;
    let dues: Vec<f64> = (0..n).map(|i| (i as f64 + rng.unit()) * slot).collect();
    let docs: Vec<Vec<usize>> = if spec.docs == 0 {
        Vec::new()
    } else {
        stratified(spec.doc_len, spec.docs, &mut rng).into_iter().map(|len| rng.tokens(len, vocab)).collect()
    };
    let tails = stratified(spec.prompt_len, n, &mut rng);
    let outputs = stratified(spec.output_len, n, &mut rng);
    let doc_of = stratified((0, spec.docs.max(1) - 1), n, &mut rng);
    (0..n)
        .map(|i| {
            let mut prompt = if docs.is_empty() { Vec::new() } else { docs[doc_of[i]].clone() };
            prompt.extend(rng.tokens(tails[i], vocab));
            Request { due_s: dues[i], prompt, max_new: outputs[i] }
        })
        .collect()
}

/// `n` values spread evenly over `lo..=hi`, in a seeded random order.
fn stratified((lo, hi): (usize, usize), n: usize, rng: &mut Rng) -> Vec<usize> {
    let span = (hi - lo + 1) as f64;
    let mut values: Vec<usize> = (0..n).map(|i| lo + ((i as f64 + 0.5) * span / n as f64) as usize).collect();
    for i in (1..n).rev() {
        values.swap(i, rng.range(0, i));
    }
    values
}

pub fn build_model() -> TransformerModel {
    TransformerModel::new(ModelConfig::llama31_8b(), ModelQuantConfig::a_mxfp4_plus())
}

pub fn threads() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// What the benchmark saw of one request.
#[derive(Default, Clone)]
struct Seen {
    submit_s: f64,
    admit_s: Option<f64>,
    first_s: Option<f64>,
    last_s: f64,
    tokens: usize,
    finish: Option<FinishReason>,
}

#[derive(Default)]
struct PassStats {
    ms: Vec<f64>,
    /// Sequences that produced a token in each pass.
    stepped: Vec<f64>,
    prefill_passes: usize,
    prompt_tokens: usize,
    saved_tokens: usize,
    shared_pages: usize,
    preemptions: usize,
    worker_steps: Vec<usize>,
    peak_occupancy: f64,
    peak_resident: usize,
    peak_positions: usize,
    busy_s: f64,
}

struct RunResult {
    seen: Vec<Seen>,
    generated: Vec<Vec<usize>>,
    /// Every inter-token gap, and the same gaps grouped by request.
    gaps_ms: Vec<f64>,
    request_gaps_ms: Vec<Vec<f64>>,
    window_s: f64,
    passes: PassStats,
    trace: Option<Trace>,
}

/// Drives one open-loop run of `reqs` to completion.
fn drive(model: &TransformerModel, spec: &ServeSpec, reqs: &[Request], tracer: &mut Tracer, traced: bool) -> RunResult {
    let nthreads = threads();
    tracer.reset_origin();
    let mut engine = ServingEngine::paged(model, spec.total_pages).with_threads(nthreads);
    if traced {
        engine = engine.with_telemetry(TelemetryConfig::On);
    }
    let pool = engine.pool().expect("paged engine has a pool").clone();
    let mut events: Vec<Event> = Vec::new();
    let mut seen = vec![Seen::default(); reqs.len()];
    let mut gaps_ms = Vec::new();
    let mut request_gaps_ms = vec![Vec::new(); reqs.len()];
    let mut ps = PassStats { worker_steps: vec![0; nthreads], ..PassStats::default() };
    let mut live: Vec<usize> = Vec::new();
    let mut next = 0;
    let root = tracer.begin("bench.drive", None);
    let start = Instant::now();
    // A run that cannot drain (a stuck scheduler) stops here; its unfinished requests
    // count as failed.
    let deadline_s = reqs.last().map_or(0.0, |r| r.due_s) + 90.0;
    loop {
        let now = since(start);
        if now > deadline_s {
            break;
        }
        while next < reqs.len() && reqs[next].due_s <= now {
            let r = &reqs[next];
            let span = tracer.begin("serving.submit", Some(next as u64));
            let id = engine.submit_with(&r.prompt, SubmitOptions::new(r.max_new));
            tracer.end(span);
            debug_assert_eq!(id, next);
            seen[next].submit_s = since(start);
            live.push(next);
            next += 1;
        }
        if live.is_empty() {
            if next == reqs.len() {
                break;
            }
            // Idle engine: sleep until the next request is due.
            let span = tracer.begin("bench.idle", None);
            thread::sleep(Duration::from_secs_f64((reqs[next].due_s - since(start)).max(0.0)));
            tracer.end(span);
            continue;
        }
        let p0 = since(start);
        let span = tracer.begin("serving.run_for", None);
        let rep = engine.run_for(1);
        tracer.end(span);
        let p1 = since(start);
        if let Some(t) = engine.take_trace() {
            events.extend_from_slice(t.events());
        }
        ps.ms.push((p1 - p0) * 1e3);
        ps.busy_s += p1 - p0;
        for (w, s) in rep.worker_decode_steps.iter().enumerate() {
            ps.worker_steps[w] += s;
        }
        if !rep.prefill_time.is_zero() {
            ps.prefill_passes += 1;
        }
        ps.prompt_tokens += rep.prompt_tokens;
        ps.saved_tokens += rep.prefill_tokens_saved;
        ps.shared_pages += rep.shared_pages;
        ps.preemptions += rep.preemptions;
        ps.peak_occupancy = ps.peak_occupancy.max(pool.in_use_pages() as f64 / pool.total_pages() as f64);

        let span = tracer.begin("bench.observe", None);
        let seqs = engine.sequences();
        let mut positions = 0;
        let mut stepped = 0;
        live.retain(|&i| {
            let s = &seqs[i];
            let o = &mut seen[i];
            positions += s.cached_positions();
            stepped += usize::from(s.generated.len() > o.tokens);
            if o.admit_s.is_none() && s.cached_positions() > 0 {
                o.admit_s = Some(p0);
            }
            while o.tokens < s.generated.len() {
                match o.first_s {
                    None => o.first_s = Some(p1),
                    Some(_) => {
                        gaps_ms.push((p1 - o.last_s) * 1e3);
                        request_gaps_ms[i].push((p1 - o.last_s) * 1e3);
                    }
                }
                o.last_s = p1;
                o.tokens += 1;
            }
            o.finish = s.finish_reason();
            o.finish.is_none()
        });
        ps.stepped.push(stepped as f64);
        if rep.resident_bytes > ps.peak_resident {
            ps.peak_resident = rep.resident_bytes;
            ps.peak_positions = positions;
        }
        tracer.end(span);
    }
    let window_s = since(start);
    tracer.end(root);
    let generated = engine.sequences().iter().map(|s| s.generated.clone()).collect();
    let trace = traced.then(|| Trace::new(events));
    RunResult { seen, generated, gaps_ms, request_gaps_ms, window_s, passes: ps, trace }
}

/// Runs `chat` or `rag` and returns its metrics and correctness.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool, process_start: Instant) -> Outcome {
    // Set-up, five times: model build, inputs and a warm-up through the engine (kernel
    // dispatch, decode tables, worker start-up). The first one counts from process start.
    let mut setups = Vec::new();
    let mut builds_ms = Vec::new();
    let mut prepared = None;
    for i in 0..5 {
        let t0 = if i == 0 { process_start } else { Instant::now() };
        drop(prepared.take());
        let tb = Instant::now();
        let model = build_model();
        builds_ms.push(since(tb) * 1e3);
        let reqs = generate(spec, seed, seconds, model.config().vocab);
        warm_up(&model, spec, &reqs);
        setups.push(since(t0));
        prepared = Some((model, reqs));
    }
    let (model, reqs) = prepared.expect("set-up ran");
    let mut tracer = Tracer::new(traced);
    // A window in which the hypervisor ran other guests for more than STEAL_LIMIT of our
    // CPU time reads slow for reasons outside the program: the untraced run then runs the
    // same requests once more on a fresh engine and reports the window with less steal.
    let mut steals: Vec<f64> = Vec::new();
    let mut runs = Vec::new();
    for _ in 0..if traced { 1 } else { MAX_ATTEMPTS } {
        let steal0 = crate::util::steal_seconds();
        let run = drive(&model, spec, &reqs, &mut tracer, traced);
        let steal = crate::util::steal_seconds() - steal0;
        let quiet = steal <= STEAL_LIMIT * run.window_s * threads() as f64;
        steals.push(steal);
        runs.push(run);
        if quiet {
            break;
        }
    }
    let reported = (0..steals.len()).min_by(|&a, &b| steals[a].total_cmp(&steals[b])).unwrap_or(0);
    let params = spec.params_json(reqs.len(), &steals, reported);
    // Greedy decoding makes every attempt's tokens identical; a discarded attempt that
    // differs from the reported one is a failure too.
    let unequal_attempts = runs.iter().filter(|r| r.generated != runs[reported].generated).count();
    let run = runs.swap_remove(reported);

    // Correctness: every request finished on its length budget with all of its tokens,
    // the stream digest matches its pin, and a sample matches an independent reference.
    let mut digest = FNV_OFFSET;
    let mut bad: Vec<bool> = reqs
        .iter()
        .zip(&run.seen)
        .zip(&run.generated)
        .map(|((r, s), g)| {
            digest = fnv1a(digest, g);
            s.finish != Some(FinishReason::Length) || g.len() != r.max_new || s.tokens != r.max_new
        })
        .collect();
    let mut notes = vec![format!("digest {} {seed} {} {digest:016x}", spec.name, seconds as u64)];
    let mut digest_ok = true;
    if let Some(pinned) = crate::goldens::digest(spec.name, seed, seconds as u64) {
        digest_ok = pinned == digest;
        notes.push(format!("digest pin: {}", if digest_ok { "match" } else { "MISMATCH" }));
    } else {
        notes.push("digest pin: none for this seed".into());
    }
    let mut rng = Rng::new(seed.wrapping_add(0x5eed));
    for _ in 0..3 {
        let i = rng.range(0, reqs.len() - 1);
        if model.generate_greedy(&reqs[i].prompt, reqs[i].max_new) != run.generated[i] {
            bad[i] = true;
            notes.push(format!("request {i}: tokens differ from generate_greedy"));
        }
    }
    let mut failed = bad.iter().filter(|&&b| b).count();
    if !digest_ok || unequal_attempts > 0 {
        failed = failed.max(1);
    }
    if unequal_attempts > 0 {
        notes.push(format!("{unequal_attempts} discarded window(s) generated different tokens"));
    }

    let mut ttft_ms: Vec<f64> = Vec::new();
    let mut mean_gaps_ms: Vec<f64> = Vec::new();
    let mut slo_ok = 0;
    for (r, s) in reqs.iter().zip(&run.seen) {
        let Some(first) = s.first_s else { continue };
        let ttft = (first - r.due_s) * 1e3;
        ttft_ms.push(ttft);
        let mean_gap = if s.tokens > 1 { (s.last_s - first) * 1e3 / (s.tokens - 1) as f64 } else { 0.0 };
        mean_gaps_ms.push(mean_gap);
        if s.finish == Some(FinishReason::Length) && ttft <= spec.ttft_slo_ms && mean_gap <= spec.gap_slo_ms {
            slo_ok += 1;
        }
    }
    let generated: usize = run.seen.iter().map(|s| s.tokens).sum();
    let mut m = Metrics::default();
    // The traced run also checks the pinned perplexity of its eval replay.
    let attempted = reqs.len() + usize::from(traced);
    if !traced {
        m.put("setup_s", median(&mut setups.clone()), "s");
        m.put("ttft_ms", midmean(&mut ttft_ms.clone()), "ms");
        // Time per output token: each request's median gap, then the interquartile mean
        // over requests.
        let mut tpot_ms: Vec<f64> =
            run.request_gaps_ms.iter().filter(|g| !g.is_empty()).map(|g| median(&mut g.clone())).collect();
        m.put("tpot_ms", midmean(&mut tpot_ms), "ms");
        m.put("slo_ok_frac", slo_ok as f64 / reqs.len() as f64, "ratio");
        m.put("output_tok_s", generated as f64 / run.window_s, "tok/s");
        m.put("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
    } else {
        // p80 rather than p90: a 50-request window holds ten samples beyond its p80.
        m.put("serving.ttft_p80_ms", quantile(&mut ttft_ms.clone(), 0.8), "ms");
        m.put("serving.request_gap_p80_ms", quantile(&mut mean_gaps_ms, 0.8), "ms");
        failed += per_layer(&mut m, &model, spec, &reqs, &run, median(&mut builds_ms), &mut tracer, seed);
    }
    for n in &notes {
        eprintln!("{n}");
    }
    eprintln!(
        "{}: {} requests over {:.1} s window, {} tokens, {} ttft samples, {} gap samples, {} of {} prompt tokens \
         served from shared pages, {} failed",
        spec.name,
        reqs.len(),
        run.window_s,
        generated,
        ttft_ms.len(),
        run.gaps_ms.len(),
        run.passes.saved_tokens,
        reqs.iter().map(|r| r.prompt.len()).sum::<usize>(),
        failed
    );
    Outcome { correct: failed == 0, attempted, failed, metrics: m, params }
}

/// Pushes a few short requests through an engine so lazy state is initialised before
/// anything is timed.
fn warm_up(model: &TransformerModel, spec: &ServeSpec, reqs: &[Request]) {
    let mut engine = ServingEngine::paged(model, spec.total_pages).with_threads(threads());
    for r in reqs.iter().take(threads()) {
        engine.submit_with(&r.prompt[..r.prompt.len().min(16)], SubmitOptions::new(4));
    }
    let _ = engine.run();
}

/// The traced run's per-layer metrics; returns the failed checks among its replays.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    m: &mut Metrics,
    model: &TransformerModel,
    spec: &ServeSpec,
    reqs: &[Request],
    run: &RunResult,
    build_ms: f64,
    tracer: &mut Tracer,
    seed: u64,
) -> usize {
    let ps = &run.passes;
    let trace = run.trace.as_ref().expect("traced run keeps its trace");
    let mut queue_ms: Vec<f64> =
        run.seen.iter().filter_map(|s| s.admit_s.map(|a| ((a - s.submit_s) * 1e3).max(0.0))).collect();
    let mut lag_ms: Vec<f64> = reqs.iter().zip(&run.seen).map(|(r, s)| (s.submit_s - r.due_s) * 1e3).collect();
    let mut pass_ms = ps.ms.clone();
    m.put("serving.queue_wait_p50_ms", quantile(&mut queue_ms, 0.5), "ms");
    m.put("serving.queue_wait_p80_ms", quantile(&mut queue_ms, 0.8), "ms");
    m.put("serving.tpot_p99_ms", quantile(&mut run.gaps_ms.clone(), 0.99), "ms");
    m.put("serving.pass_ms_p50", quantile(&mut pass_ms, 0.5), "ms");
    m.put("serving.pass_ms_p99", quantile(&mut pass_ms, 0.99), "ms");
    m.put("serving.active_seqs_mean", mean(&ps.stepped), "count");
    m.put("serving.prefill_pass_frac", ps.prefill_passes as f64 / ps.ms.len().max(1) as f64, "ratio");
    let prompt_total: usize = reqs.iter().map(|r| r.prompt.len()).sum();
    m.put("serving.prefix_hit_frac", ps.saved_tokens as f64 / prompt_total as f64, "ratio");
    let wmean = mean(&ps.worker_steps.iter().map(|&s| s as f64).collect::<Vec<_>>());
    let wmax = ps.worker_steps.iter().copied().max().unwrap_or(0) as f64;
    m.put("serving.worker_skew", if wmean > 0.0 { wmax / wmean } else { 1.0 }, "ratio");
    m.put("serving.busy_frac", ps.busy_s / run.window_s, "ratio");
    m.put("serving.preemptions", ps.preemptions as f64, "count");

    let prefill_ms = Tracer::engine_span_ms(trace, "prefill");
    let mut decode_ms = Tracer::engine_span_ms(trace, "decode_step");
    let prefilled_tokens = (ps.prompt_tokens - ps.saved_tokens).max(1);
    let prefill_per_token = prefill_ms.iter().sum::<f64>() / prefilled_tokens as f64;
    let decode_mean = mean(&decode_ms);
    m.put("model.prefill_ms_per_token", prefill_per_token, "ms");
    m.put("model.decode_step_ms_p50", quantile(&mut decode_ms, 0.5), "ms");
    m.put("model.decode_step_ms_p99", quantile(&mut decode_ms, 0.99), "ms");
    m.put("model.build_ms", build_ms, "ms");

    // Replays of the layers below the model at this workload's shapes, and how much of a
    // measured decode step / prefilled token they account for.
    let decode_ctx = mean(&reqs.iter().map(|r| r.prompt.len() as f64 + r.max_new as f64 / 2.0).collect::<Vec<_>>());
    let prefill_rows = (prefilled_tokens as f64 / prefill_ms.len().max(1) as f64).round().max(1.0) as usize;
    let ops = replay::layer_ops(model, prefill_rows, decode_ctx, tracer);
    let decode_pred_ms = ops.decode_token_ns(model, decode_ctx) / 1e6;
    let prefill_ctx = reqs.iter().map(|r| r.prompt.len() as f64).sum::<f64>() / reqs.len() as f64 / 2.0;
    let prefill_pred_ms = ops.prefill_token_ns(model, prefill_ctx) / 1e6;
    m.put("model.decode_coverage_frac", decode_pred_ms / decode_mean.max(1e-9), "ratio");
    m.put("model.prefill_coverage_frac", prefill_pred_ms / prefill_per_token.max(1e-9), "ratio");
    m.put("paging.append_ns_per_row", ops.append_ns, "ns");
    m.put("paging.resident_bytes_per_position", ps.peak_resident as f64 / ps.peak_positions.max(1) as f64, "B");
    m.put("paging.peak_occupancy", ps.peak_occupancy, "ratio");
    m.put("paging.shared_pages", ps.shared_pages as f64, "count");
    m.put("formats.qdq_ns_per_elem.mxfp4", ops.qdq_mx_ns, "ns");
    m.put("formats.qdq_ns_per_elem.mxfp4plus", ops.qdq_plus_ns, "ns");
    m.put("formats.pack_row_ns", ops.pack_ns, "ns");
    m.put("formats.unpack_row_ns", ops.unpack_ns, "ns");
    m.put("tensor.gemv_ns_per_mac", ops.gemv_ns_per_mac, "ns");
    m.put("tensor.gemm_ns_per_mac", ops.gemm_ns_per_mac, "ns");
    m.put("tensor.quantize_rows_ns_per_elem", ops.quantize_rows_ns, "ns");
    m.put("tensor.quantize_columns_ms", ops.quantize_columns_ms, "ms");
    m.put("tensor.vector_ops_ns_per_token", ops.vector_ns_per_token, "ns");
    let (reference_ms, evaluate_ms, eval_ok) = replay::eval_ops(tracer);
    m.put("eval.reference_ms", reference_ms, "ms");
    m.put("eval.evaluate_ms", evaluate_ms, "ms");
    m.put("bench.gen_lag_p80_ms", quantile(&mut lag_ms, 0.8), "ms");
    m.put("telemetry.overhead_frac", telemetry_overhead(model, spec, reqs), "ratio");

    let generated: usize = run.seen.iter().map(|s| s.tokens).sum();
    println!("per-span self time, traced {} run ({} generated tokens):", spec.name, generated);
    print_self_times(&tracer.self_times(Some(trace)), ("token", generated as f64));
    crate::spans::write_trace(tracer, Some(trace), &format!("{}-seed{seed}", spec.name));
    usize::from(!eval_ok)
}

/// Cost of event tracing: the same closed batch run with telemetry off and on,
/// alternating, as the ratio of median wall times minus one.
fn telemetry_overhead(model: &TransformerModel, spec: &ServeSpec, reqs: &[Request]) -> f64 {
    let batch: Vec<(&[usize], usize)> =
        reqs.iter().take(8).map(|r| (&r.prompt[r.prompt.len().saturating_sub(64)..], r.max_new.min(32))).collect();
    let once = |traced: bool| {
        let mut engine = ServingEngine::paged(model, spec.total_pages).with_threads(threads());
        if traced {
            engine = engine.with_telemetry(TelemetryConfig::On);
        }
        for &(p, n) in &batch {
            engine.submit_with(p, SubmitOptions::new(n));
        }
        let t = Instant::now();
        let _ = engine.run();
        since(t)
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        off.push(once(false));
        on.push(once(true));
    }
    median(&mut on) / median(&mut off) - 1.0
}
