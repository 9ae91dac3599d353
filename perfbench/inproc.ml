(* Pieces shared by the two in-process registry workloads (paper-100k-q1
   and mqo-10k-64q): the chunked closed loop, the fixed-length count
   segments, the traced step, and the registration probe. *)

open Common

type rates = { per_cpu_s : float; per_wall_s : float; wall_ns : int }

(* Closed loop for [seconds]: whole chunks of [chunk] samples, each
   timed; [between] runs after every chunk, off the clock, and gets the
   wall sampling time so far in ns. Returns samples per second of
   processor time and of wall time spent sampling, and the phase's wall
   time in ns. *)
let loop ~seconds ~chunk ~step ~between =
  let samples = ref 0 and sampling_ns = ref 0 and sampling_cpu = ref 0 in
  let start = now_ns () in
  while secs_since start < seconds do
    let t0 = now_ns () and c0 = cpu_ns () in
    for _ = 1 to chunk do
      step ()
    done;
    sampling_cpu := !sampling_cpu + (cpu_ns () - c0);
    sampling_ns := !sampling_ns + (now_ns () - t0);
    samples := !samples + chunk;
    attempt ~n:chunk ();
    between !sampling_ns
  done;
  let rate ns = float_of_int !samples /. Obs.Timer.seconds ns in
  { per_cpu_s = rate !sampling_cpu; per_wall_s = rate !sampling_ns; wall_ns = now_ns () - start }

(* Fixed-length segments from the post-setup state, so their counts are
   exact functions of the seed: allocation and delta size with all
   instrumentation off, then the program's join-probe counter with its
   metrics on. *)
let count_segment ~samples ~thin pdb reg =
  let w = Core.Pdb.world pdb in
  let words = ref 0. and rows = ref 0 in
  for _ = 1 to samples do
    let w0 = Gc.minor_words () in
    Core.Pdb.walk pdb ~steps:thin;
    words := !words +. (Gc.minor_words () -. w0);
    rows := !rows + Relational.Delta.total_magnitude (Core.World.pending_delta w);
    Serve.Registry.step reg ~thin:0
  done;
  let tuples =
    List.fold_left
      (fun acc (q, _) ->
        acc + List.length (Core.Marginals.counts (Serve.Registry.marginals reg q)))
      0 (Serve.Registry.queries reg)
  in
  Obs.Metrics.set_enabled true;
  let probe0 = counter "view.join.probe_rows" in
  for _ = 1 to samples do
    Serve.Registry.step reg ~thin
  done;
  let probe = counter "view.join.probe_rows" - probe0 in
  Obs.Metrics.set_enabled false;
  attempt ~n:(2 * samples) ();
  [ m "mcmc.minor_words_per_step" "words" (!words /. float_of_int (samples * thin));
    m "delta.rows_per_sample" "rows" (per !rows samples);
    m "view.probe_rows_per_sample" "rows" (per probe samples);
    m "marginals.tuples" "tuples" (float_of_int tuples) ]

(* One sample as two top-level spans: the walk, then the fan-out of its
   delta (Registry.step with thin 0 walks nothing, then drains, updates
   every view and folds every marginal). *)
let traced_step pdb reg ~thin () =
  Span.time ~top:true "mcmc.walk" (fun () -> Core.Pdb.walk pdb ~steps:thin);
  Span.time ~top:true "registry.fanout" (fun () -> Serve.Registry.step reg ~thin:0)

(* Parse, plan and bootstrap of each of [sqls] on the live world, timed
   apart (the bootstrap without the registry's shared-subplan cache);
   medians over the list. *)
let register_probe db sqls =
  let parse = ref [] and plan = ref [] and boot = ref [] in
  List.iter
    (fun sql ->
      let a, parse_s = Instance.timed (fun () -> Relational.Sql.parse sql) in
      let a, plan_s =
        Instance.timed (fun () ->
            Relational.Optimizer.reorder db (Relational.Optimizer.optimize a))
      in
      let v, boot_s = Instance.timed (fun () -> Relational.View.create db a) in
      ignore (Sys.opaque_identity v);
      parse := (parse_s *. 1e6) :: !parse;
      plan := (plan_s *. 1e6) :: !plan;
      boot := (boot_s *. 1e3) :: !boot)
    sqls;
  [ m "register.parse_us" "us" (median !parse);
    m "register.plan_us" "us" (median !plan);
    m "register.bootstrap_ms" "ms" (median !boot) ]

let stats_of pdb =
  let st = Core.Pdb.stats pdb in
  (st.Mcmc.Metropolis.proposed, st.Mcmc.Metropolis.accepted)

(* Walk-layer figures from the traced phase's spans and MH accounting. *)
let walk_metrics ~samples ~thin ~stats0 pdb =
  let proposed, accepted = stats_of pdb in
  let proposed = proposed - fst stats0 and accepted = accepted - snd stats0 in
  [ m "mcmc.walk_ns_per_step" "ns" (per (Span.total_ns "mcmc.walk") (samples * thin));
    m "mcmc.propose_ns" "ns" (Span.mean_ns "mcmc.propose");
    m "mcmc.commit_ns" "ns" (Span.mean_ns "mcmc.commit");
    m "mcmc.acceptance_rate" "ratio" (per accepted proposed);
    m "registry.fanout_ns_per_sample" "ns" (per (Span.total_ns "registry.fanout") samples) ]

(* Untraced then traced halves of the timed phase on the same chain:
   the walk-layer metrics, the untraced wall-clock rate, the tracing
   overhead and the attributed share. *)
let halves ~seconds ~chunk ~thin ~between pdb reg =
  let half = seconds /. 2. in
  let plain =
    loop ~seconds:half ~chunk ~step:(fun () -> Serve.Registry.step reg ~thin) ~between
  in
  let samples0 = Serve.Registry.samples reg and stats0 = stats_of pdb in
  Span.on := true;
  let traced =
    loop ~seconds:half ~chunk ~step:(traced_step pdb reg ~thin) ~between:(fun _ -> ())
  in
  Span.on := false;
  let samples = Serve.Registry.samples reg - samples0 in
  walk_metrics ~samples ~thin ~stats0 pdb
  @ [ m "samples_per_wall_s" "1/s" plain.per_wall_s;
      m "trace.overhead" "ratio" (traced.per_cpu_s /. plain.per_cpu_s);
      m "trace.attributed_share" "ratio" (per !Span.attributed traced.wall_ns) ]
