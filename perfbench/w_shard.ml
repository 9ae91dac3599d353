(* shard2-1m: a 1M-token corpus split two ways by Ie.Sharding.plan, one
   chain per shard on Serve.Shard, Query 1 and Query 2. The only workload
   whose data is far larger than the caches, and the only one through
   Mcmc.Parallel and the shard merge. A sample is one merged full-corpus
   world: both shards' chains advance thin steps each. (Mcmc.Parallel
   runs at most recommended_domain_count - 1 domains, so on a 2-core
   machine the two shards run one after the other.) The chains start
   from the all-O labels of §5: a run covers a few sweeps of the 1M
   tokens, too few for the label mix, and the per-step cost with it, to
   move much, while setting truth labels would add a second per set-up.

   The per-proposal spans are not used here: the span table is not
   shared safely across domains. *)

open Common

let corpus_seed = 4242
let n_tokens = 1_000_000
let shards = 2
let thin = 1000
let burn_in = 100_000
(* Merged worlds per round. A round of 300 takes 4-5 s on a 2-core
   machine, more than half of it the registrations and bootstraps that
   Serve.Shard.evaluate repeats on every call, so a 25-s run has five or
   six rounds to take the median rate of. *)
let samples = 300

(* Core.Marginals.merge_shards unions each shard's COUNT answers as if
   each shard's count were the global count, so the merged Query 2
   answer carries one unit of mass per shard. The check below states
   what a correct merge gives: mass 1, and an expectation equal to the
   sum of the per-shard expectations. Those come from a third standing
   query, B-PER tokens per document: documents never span shards, so its
   rows are shard-disjoint and the union merge is exact for it. Until the
   merge is fixed the check fails on every round and is counted as a
   failed operation. *)
let merge_fault = "Core.Marginals.merge_shards: Query 2 merged answer has mass 1 per shard"
let per_doc = "SELECT DOC_ID, COUNT(*) AS N FROM TOKEN WHERE LABEL='B-PER' GROUP BY DOC_ID"
let mass_tolerance = 1e-6
let expectation_tolerance = 1e-6

type inst = { plan : Ie.Sharding.t; pdbs : Core.Pdb.t array; plan_s : float }

let setup ~seed () =
  let docs, corpus_s =
    Instance.timed (fun () -> Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens)
  in
  let (plan, parts), plan_s =
    Instance.timed (fun () ->
        let plan = Ie.Sharding.plan ~shards docs in
        (plan, Ie.Sharding.split plan docs))
  in
  let built =
    Array.mapi
      (fun s part ->
        Instance.build_on ~traced:false
          ~chain_seed:((W_paper.chain_seed seed * 16) + s)
          ~from_truth:false ~burn_in ~corpus_s:0. part)
      parts
  in
  let sum f = Array.fold_left (fun acc (_, t) -> acc +. f t) 0. built in
  let times =
    {
      Instance.corpus_s;
      load_s = sum (fun t -> t.Instance.load_s);
      model_s = sum (fun t -> t.Instance.model_s);
      burn_in_s = sum (fun t -> t.Instance.burn_in_s);
      register_s = 0.;
    }
  in
  ({ plan; pdbs = Array.map fst built; plan_s }, times)

let queries =
  [ ("q1", Relational.Sql.parse Instance.q1); ("q2", Relational.Sql.parse Instance.q2);
    ("per_doc", Relational.Sql.parse per_doc) ]

(* One round: a Serve.Shard.evaluate of [samples] merged worlds, then the
   output checks. Every round attempts the same operations. Returns the
   evaluate's wall and processor seconds and the tuples it produced. *)
let round i =
  let t0 = now_ns () and c0 = cpu_ns () in
  let merged =
    Span.time ~top:true "shard.evaluate" (fun () ->
        Serve.Shard.evaluate ~shards ~make:(fun ~shard -> i.pdbs.(shard)) ~queries ~thin ~samples ())
  in
  let cpu = Obs.Timer.seconds (cpu_ns () - c0) and wall = secs_since t0 in
  attempt ~n:samples ();
  let q1 = List.assoc "q1" merged and q2 = List.assoc "q2" merged in
  check "shard: Query 1 probabilities in [0,1], normalizer = samples + 1"
    (Instance.marginals_sane q1 ~samples:(samples + 1));
  let final_strings =
    Array.fold_left
      (fun acc pdb -> Instance.SS.union acc (Instance.strings_labelled (Core.Pdb.db pdb) "B-PER"))
      Instance.SS.empty i.pdbs
  in
  check "shard: every final-world B-PER string has non-zero merged probability"
    (Instance.SS.for_all
       (fun s -> Core.Marginals.probability q1 [| Relational.Value.Text s |] > 0.)
       final_strings);
  let est = Core.Marginals.estimates q2 in
  let mass = List.fold_left (fun acc (_, p) -> acc +. p) 0. est in
  let expectation =
    List.fold_left
      (fun acc (r, p) ->
        match r with [| Relational.Value.Int n |] -> acc +. (float_of_int n *. p) | _ -> acc)
      0. est
  in
  let sum_per_shard =
    List.fold_left
      (fun acc (r, p) ->
        match r with [| _; Relational.Value.Int n |] -> acc +. (float_of_int n *. p) | _ -> acc)
      0. (Core.Marginals.estimates (List.assoc "per_doc" merged))
  in
  check ~known_fault:merge_fault
    (Printf.sprintf "shard: Query 2 merged mass %.6f (want 1), expectation %.3f (want %.3f)" mass
       expectation sum_per_shard)
    (Float.abs (mass -. 1.) <= mass_tolerance
    && Float.abs (expectation -. sum_per_shard) <= expectation_tolerance *. sum_per_shard);
  (wall, cpu, List.length est + List.length (Core.Marginals.estimates q1))

type rounds = {
  per_cpu_s : float;  (** median over the rounds *)
  per_wall_s : float;  (** over the summed evaluate wall time *)
  n : int;
  walls : float;
  tuples : int;  (** of the last round *)
  wall_ns : int;
}

(* Whole rounds for [seconds]: merged worlds per second of processor
   time, the median over the rounds, which keeps a round that met a burst
   of load from elsewhere on the machine out of the rate; and the wall
   figures. *)
let rounds ~seconds i =
  let start = now_ns () in
  let rates = ref [] and walls = ref 0. and tuples = ref 0 and n = ref 0 in
  while !n = 0 || secs_since start < seconds do
    let wall, cpu, t = round i in
    rates := (float_of_int samples /. cpu) :: !rates;
    walls := !walls +. wall;
    tuples := t;
    incr n
  done;
  { per_cpu_s = median !rates; per_wall_s = float_of_int (!n * samples) /. !walls; n = !n;
    walls = !walls; tuples = !tuples; wall_ns = now_ns () - start }

let setups ~seed ~reps = Instance.repeat_setup ~reps (setup ~seed)

let run ~seed ~seconds ~reps =
  let i, setup_s, _ = setups ~seed ~reps in
  let r = rounds ~seconds i in
  [ m "setup_s" "s" setup_s; m "samples_per_cpu_s" "1/s" r.per_cpu_s ]

let trace ~seed ~seconds ~reps =
  let i, _, times = setups ~seed ~reps in
  let half = seconds /. 2. in
  let plain = rounds ~seconds:half i in
  Obs.Metrics.set_enabled true;
  let merge0 = counter "shard.merge_ns" in
  Span.on := true;
  let traced = rounds ~seconds:half i in
  Span.on := false;
  let merge_ns = counter "shard.merge_ns" - merge0 in
  Obs.Metrics.set_enabled false;
  let st = Array.map Core.Pdb.stats i.pdbs in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 st in
  let weights = i.plan.Ie.Sharding.weights in
  let mean_w = per (Array.fold_left ( + ) 0 weights) (Array.length weights) in
  let docs = Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens in
  let db0 = Core.Pdb.db i.pdbs.(0) in
  Instance.setup_metrics times
  @ Inproc.register_probe db0 [ Instance.q1; Instance.q2 ]
  @ [ m "storage.bytes_per_token" "B" (Instance.bytes_per_token docs);
      m "mcmc.acceptance_rate" "ratio"
        (per (sum (fun s -> s.Mcmc.Metropolis.accepted)) (sum (fun s -> s.Mcmc.Metropolis.proposed)));
      m "marginals.tuples" "tuples" (float_of_int traced.tuples);
      m "shard.plan_s" "s" i.plan_s;
      m "shard.imbalance" "ratio"
        (float_of_int (Array.fold_left max 0 weights) /. mean_w);
      m "shard.cut_strings" "strings" (float_of_int i.plan.Ie.Sharding.cut_strings);
      m "shard.mh_steps_per_s" "1/s"
        (float_of_int (traced.n * samples * thin * shards) /. traced.walls);
      m "shard.merge_ms" "ms" (float_of_int merge_ns /. 1e6 /. float_of_int traced.n);
      m "samples_per_wall_s" "1/s" plain.per_wall_s;
      m "trace.overhead" "ratio" (traced.per_cpu_s /. plain.per_cpu_s);
      m "trace.attributed_share" "ratio" (per !Span.attributed traced.wall_ns) ]
