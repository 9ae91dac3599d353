(* mqo-10k-64q: 64 overlapping self-join queries (8 label-pair join cores
   x 8 tops: projections, DISTINCT, COUNT, GROUP BY) on one chain over a
   10k-token corpus, thin 100. View maintenance across the shared
   subplans and the marginal fold do almost all the work — the reverse
   of paper-100k-q1. *)

open Common

let corpus_seed = 330
let n_tokens = 10_000
let thin = 100
let burn_in = 100_000
let chunk = 50
let count_samples = 200

(* Untimed samples before the timed loop. Each of the 64 marginals keeps
   gaining distinct tuples, and the fan-out grows from about 5 ms to about
   10 ms a sample over the first ~1500 samples before it levels off. A
   fixed count, not a time, so every run starts timing at the same point
   of that curve whatever the machine's speed. *)
let warm_up = 1000

let cores =
  [| ("B-PER", "B-ORG"); ("B-ORG", "B-PER"); ("B-PER", "B-LOC"); ("B-LOC", "B-PER");
     ("B-ORG", "B-LOC"); ("B-LOC", "B-ORG"); ("B-PER", "B-MISC"); ("B-MISC", "B-PER") |]

(* Tops vary only above the join, so every query over one label pair
   normalizes to the same shared core. *)
let tops =
  [| (fun c -> "SELECT T1.STRING " ^ c);
     (fun c -> "SELECT T2.STRING " ^ c);
     (fun c -> "SELECT T1.STRING, T2.STRING " ^ c);
     (fun c -> "SELECT DISTINCT T1.STRING " ^ c);
     (fun c -> "SELECT DISTINCT T2.STRING " ^ c);
     (fun c -> "SELECT COUNT(*) " ^ c);
     (fun c -> "SELECT T1.STRING, COUNT(*) AS N " ^ c ^ " GROUP BY T1.STRING");
     (fun c -> "SELECT T2.STRING, COUNT(*) AS N " ^ c ^ " GROUP BY T2.STRING") |]

let pair_top = 2
let count_top = 5

let query i =
  let l1, l2 = cores.(i mod 8) in
  tops.(i / 8)
    (Printf.sprintf
       "FROM TOKEN T1, TOKEN T2 WHERE T1.DOC_ID=T2.DOC_ID AND T1.LABEL='%s' AND T2.LABEL='%s'" l1
       l2)

let queries = List.init 64 query

type inst = { pdb : Core.Pdb.t; reg : Serve.Registry.t; ids : Serve.Registry.query_id array }

let setup ~traced ~seed ~register_ms () =
  let pdb, times =
    Instance.build ~traced ~corpus_seed ~n_tokens ~chain_seed:(W_paper.chain_seed seed) ~burn_in ()
  in
  let reg = Serve.Registry.create pdb in
  let t0 = now_ns () in
  let ids =
    Array.of_list
      (List.map
         (fun sql ->
           let t = now_ns () in
           let id = Serve.Registry.register_sql reg sql in
           register_ms := ms_since t :: !register_ms;
           id)
         queries)
  in
  times.Instance.register_s <- secs_since t0;
  ({ pdb; reg; ids }, times)

let distinct_rows bag =
  let acc = ref [] in
  Relational.Bag.iter (fun r c -> if c > 0 then acc := r :: !acc) bag;
  List.sort Relational.Row.compare !acc

(* One more sample, then every view's answer (read back from its
   marginals) against Relational.Eval.eval of the same query on the
   world it was maintained to, and every COUNT top against the row count
   of its sibling pair projection. *)
let check_point i ~label =
  let before = Array.map (fun id -> Instance.counts_map (Serve.Registry.marginals i.reg id)) i.ids in
  Serve.Registry.step i.reg ~thin;
  let db = Core.Pdb.db i.pdb in
  let eval k = (Relational.Eval.eval db (Relational.Sql.parse (query k))).Relational.Eval.bag in
  let answers =
    Array.mapi
      (fun k id ->
        List.sort Relational.Row.compare
          (Instance.last_answer ~before:before.(k) (Serve.Registry.marginals i.reg id)))
      i.ids
  in
  let views_ok =
    Array.for_all Fun.id
      (Array.mapi
         (fun k a ->
           let e = distinct_rows (eval k) in
           List.length a = List.length e && List.for_all2 Relational.Row.equal a e)
         answers)
  in
  check (Printf.sprintf "mqo: every view equals re-evaluation (%s)" label) views_ok;
  let counts_ok =
    List.for_all
      (fun c ->
        let pairs = Relational.Bag.total (eval ((8 * pair_top) + c)) in
        match answers.((8 * count_top) + c) with
        | [ [| Relational.Value.Int n |] ] -> n = pairs
        | _ -> false)
      (List.init 8 Fun.id)
  in
  check (Printf.sprintf "mqo: COUNT tops equal their pair projection's rows (%s)" label) counts_ok

let warm i =
  Serve.Registry.run i.reg ~thin ~samples:warm_up;
  attempt ~n:warm_up ()

let run ~seed ~seconds ~reps =
  let i, setup_s, _ = Instance.repeat_setup ~reps (setup ~traced:false ~seed ~register_ms:(ref [])) in
  warm i;
  check_point i ~label:"start";
  let r =
    Inproc.loop ~seconds ~chunk ~step:(fun () -> Serve.Registry.step i.reg ~thin)
      ~between:(fun _ -> ())
  in
  check_point i ~label:"end";
  [ m "setup_s" "s" setup_s; m "samples_per_cpu_s" "1/s" r.Inproc.per_cpu_s ]

let trace ~seed ~seconds ~reps =
  let register_ms = ref [] in
  let i, _, times = Instance.repeat_setup ~reps (setup ~traced:true ~seed ~register_ms) in
  let counts = Inproc.count_segment ~samples:count_samples ~thin i.pdb i.reg in
  warm i;
  check_point i ~label:"start";
  let traced = Inproc.halves ~seconds ~chunk ~thin ~between:(fun _ -> ()) i.pdb i.reg in
  check_point i ~label:"end";
  let docs = Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens in
  Instance.setup_metrics times @ counts @ traced
  @ Inproc.register_probe (Core.Pdb.db i.pdb) queries
  @ [ m "storage.bytes_per_token" "B" (Instance.bytes_per_token docs);
      m "registry.shared_nodes" "nodes" (float_of_int (Serve.Registry.shared_nodes i.reg));
      m "register_ms" "ms" (median !register_ms);
      m "register_tail_ms" "ms" (tail !register_ms) ]
