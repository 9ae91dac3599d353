(* paper-100k-q1: the paper's §5 NER setting at Fig 4 scale. A 100k-token
   corpus, the skip-chain CRF with batched flips (§5.1), thin 1000, and
   Query 1 as the one standing query on a Serve.Registry. The MH walk
   does almost all the work, so this is where propose/score/commit and
   the registry's one-query overhead show. *)

open Common

let corpus_seed = 1729
let n_tokens = 100_000
let thin = 1000
let burn_in = 100_000
let chunk = 25
let count_samples = 100

(* Time to loss: Query 1's squared error against the stored reference
   must fall to this fraction of its value at registration. *)
let loss_target = 0.05

(* Measured chains use odd seeds; the reference chains (Reference) use
   even ones, so the two never share a random stream. *)
let chain_seed seed = (2 * (abs seed mod 1_000_000_000)) + 1

type inst = { pdb : Core.Pdb.t; reg : Serve.Registry.t; mutable q : Serve.Registry.query_id }

let setup ~traced ~seed () =
  let pdb, times =
    Instance.build ~traced ~corpus_seed ~n_tokens ~chain_seed:(chain_seed seed) ~burn_in ()
  in
  let reg = Serve.Registry.create pdb in
  let q, reg_s = Instance.timed (fun () -> Serve.Registry.register_sql reg Instance.q1) in
  times.Instance.register_s <- reg_s;
  ({ pdb; reg; q }, times)

(* Tracks Query 1's loss between chunks until it reaches its target;
   the time to loss counts sampling time only. *)
let loss_tracker reference i =
  let loss () = Core.Marginals.squared_error_to ~reference (Serve.Registry.marginals i.reg i.q) in
  let initial = loss () and ttl = ref None in
  let between sampling_ns =
    if Option.is_none !ttl && loss () <= loss_target *. initial then
      ttl := Some (Obs.Timer.seconds sampling_ns)
  in
  (between, ttl)

let final_checks i ~registered_at ~ttl =
  let m = Serve.Registry.marginals i.reg i.q in
  let before = Instance.counts_map m in
  Serve.Registry.step i.reg ~thin;
  let answer =
    List.fold_left
      (fun acc r ->
        match r with
        | [| Relational.Value.Text s |] -> Instance.SS.add s acc
        | _ -> Instance.SS.add "<non-string row>" acc)
      Instance.SS.empty (Instance.last_answer ~before m)
  in
  let scan = Instance.strings_labelled (Core.Pdb.db i.pdb) "B-PER" in
  check "paper: Query 1 answer equals the TOKEN scan" (Instance.SS.equal answer scan);
  check "paper: probabilities in [0,1], normalizer = samples + 1"
    (Instance.marginals_sane m ~samples:(Serve.Registry.samples i.reg - registered_at + 1));
  check "paper: loss reaches its target" (Option.is_some ttl)

let run ~seed ~seconds ~reps =
  let reference = Reference.load ~corpus_seed ~n_tokens in
  let i, setup_s, _ = Instance.repeat_setup ~reps (setup ~traced:false ~seed) in
  let between, ttl = loss_tracker reference i in
  let r = Inproc.loop ~seconds ~chunk ~step:(fun () -> Serve.Registry.step i.reg ~thin) ~between in
  final_checks i ~registered_at:0 ~ttl:!ttl;
  [ m "setup_s" "s" setup_s; m "samples_per_cpu_s" "1/s" r.Inproc.per_cpu_s ]

let trace ~seed ~seconds ~reps =
  let reference = Reference.load ~corpus_seed ~n_tokens in
  let i, _, times = Instance.repeat_setup ~reps (setup ~traced:true ~seed) in
  let counts = Inproc.count_segment ~samples:count_samples ~thin i.pdb i.reg in
  (* A fresh registration for the timed phases, so time to loss starts
     from one observed world as in the untraced run. *)
  ignore (Serve.Registry.unregister i.reg i.q : Core.Marginals.t);
  i.q <- Serve.Registry.register_sql i.reg Instance.q1;
  let registered_at = Serve.Registry.samples i.reg in
  let between, ttl = loss_tracker reference i in
  let traced = Inproc.halves ~seconds ~chunk ~thin ~between i.pdb i.reg in
  final_checks i ~registered_at ~ttl:!ttl;
  let docs = Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens in
  Instance.setup_metrics times @ counts @ traced
  @ Inproc.register_probe (Core.Pdb.db i.pdb) (List.init 5 (fun _ -> Instance.q1))
  @ [ m "storage.bytes_per_token" "B" (Instance.bytes_per_token docs);
      m "registry.shared_nodes" "nodes" (float_of_int (Serve.Registry.shared_nodes i.reg));
      m "time_to_loss_s" "s" (Option.value ~default:0. !ttl);
      m "register_ms" "ms" (times.Instance.register_s *. 1e3);
      m "register_tail_ms" "ms" (times.Instance.register_s *. 1e3) ]
