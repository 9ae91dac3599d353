(* Building one chain the way every workload does: corpus generation,
   TOKEN load, model build, burn-in — each phase timed, so the traced run
   can split [setup_s] by layer. *)

open Common

let q1 = "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'"
let q2 = "SELECT COUNT(*) FROM TOKEN WHERE LABEL='B-PER'"

let q4 =
  "SELECT T2.STRING FROM TOKEN T1, TOKEN T2 WHERE T1.STRING='Boston' AND \
   T1.LABEL='B-ORG' AND T1.DOC_ID=T2.DOC_ID AND T2.LABEL='B-PER'"

type times = {
  corpus_s : float;
  load_s : float;
  model_s : float;
  burn_in_s : float;
  mutable register_s : float;
}

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* In the traced run the proposal closure is wrapped so the benchmark can
   sum the time spent proposing (batched flip + CRF scoring) and, for
   accepted proposals, committing (the world write + delta record). With
   spans off the wrapper only adds a branch and allocates nothing. *)
let wrap (p : Core.World.t Mcmc.Proposal.t) : Core.World.t Mcmc.Proposal.t =
 fun rng w ->
  if not !Span.on then p rng w
  else
    let c = Span.sum "mcmc.propose" (fun () -> p rng w) in
    { c with Mcmc.Proposal.commit = (fun () -> Span.sum "mcmc.commit" c.Mcmc.Proposal.commit) }

(* The chain over an already loaded database. [proposals_per_batch] is
   aligned with thin where a resumed run must be sample-path identical
   (batch reloads then land on sample boundaries).

   A fresh chain ([from_truth]) starts from the corpus's truth labels,
   which sit near the model's stationary label mix: from the all-O start
   of §5 the share of entity labels keeps climbing for about a hundred
   sweeps, and the per-sample cost with it (the 64 self-joins of
   mqo-10k-64q got five times dearer within a minute), so a timed loop
   would measure a transient rather than the serving cost. A resumed
   chain keeps the labels of the database it is given. *)
let chain ~traced ~chain_seed ?proposals_per_batch ?(from_truth = false) db =
  let world = Core.World.create db in
  let crf = Ie.Crf.create ~params:(Ie.Crf.default_params ()) world in
  if from_truth then begin
    Ie.Crf.set_labels_to_truth crf;
    ignore (Core.World.drain_delta world : Relational.Delta.t)
  end;
  let rng = Mcmc.Rng.create chain_seed in
  let p = Ie.Proposals.batched_flip ?proposals_per_batch ~rng crf in
  Core.Pdb.create ~world ~proposal:(if traced then wrap p else p) ~rng

let load docs =
  let db = Relational.Database.create () in
  ignore (Ie.Token_table.load db docs : Relational.Table.t);
  db

(* A burned-in chain over [docs]; returns the chain and its phase times
   (corpus time is the caller's). *)
let build_on ~traced ~chain_seed ?proposals_per_batch ?(from_truth = true) ~burn_in ~corpus_s docs =
  let db, load_s = timed (fun () -> load docs) in
  let pdb, model_s =
    timed (fun () -> chain ~traced ~chain_seed ?proposals_per_batch ~from_truth db)
  in
  let (), burn_in_s = timed (fun () -> Core.Pdb.walk pdb ~steps:burn_in) in
  (pdb, { corpus_s; load_s; model_s; burn_in_s; register_s = 0. })

let build ~traced ~corpus_seed ~n_tokens ~chain_seed ?proposals_per_batch ~burn_in () =
  let docs, corpus_s = timed (fun () -> Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens) in
  build_on ~traced ~chain_seed ?proposals_per_batch ~burn_in ~corpus_s docs

(* [reps] full set-ups; the last instance is kept for measuring. The
   set-up time is the median of their processor times; each phase is
   reported as its median wall time over the repetitions. *)
let repeat_setup ?(discard = fun _ -> ()) ~reps f =
  let rec go i acc =
    let t0 = cpu_ns () in
    let inst, times = f () in
    let total = Obs.Timer.seconds (cpu_ns () - t0) in
    let acc = (total, times) :: acc in
    (* Off the clock: release an instance that is not kept, and compact,
       so every set-up and the timed loop start from a compact heap. *)
    if i + 1 < reps then discard inst;
    Gc.compact ();
    if i + 1 >= reps then (inst, acc) else go (i + 1) acc
  in
  let inst, runs = go 0 [] in
  let med f = median (List.map (fun (_, t) -> f t) runs) in
  let times =
    {
      corpus_s = med (fun t -> t.corpus_s);
      load_s = med (fun t -> t.load_s);
      model_s = med (fun t -> t.model_s);
      burn_in_s = med (fun t -> t.burn_in_s);
      register_s = med (fun t -> t.register_s);
    }
  in
  (inst, median (List.map fst runs), times)

let setup_metrics (t : times) =
  [ m "setup.corpus_s" "s" t.corpus_s;
    m "setup.load_s" "s" t.load_s;
    m "setup.model_s" "s" t.model_s;
    m "setup.burn_in_s" "s" t.burn_in_s;
    m "setup.register_s" "s" t.register_s ]

(* Live-heap growth of one more TOKEN load of [docs], per token. *)
let bytes_per_token docs =
  let before = live_bytes () in
  let db = load docs in
  let after = live_bytes () in
  ignore (Sys.opaque_identity db);
  per (after - before) (Ie.Corpus.total_tokens docs)

(* The benchmark's own scan of TOKEN: every string labelled [label]. *)
module SS = Set.Make (String)

let strings_labelled db label =
  let tok = Relational.Database.table db Ie.Token_table.table_name in
  let schema = Relational.Table.schema tok in
  let si = Relational.Schema.index_of schema "STRING"
  and li = Relational.Schema.index_of schema "LABEL" in
  let acc = ref SS.empty in
  Relational.Table.iter
    (fun row _ ->
      match (row.(li), row.(si)) with
      | Relational.Value.Text l, Relational.Value.Text s when String.equal l label ->
          acc := SS.add s !acc
      | _ -> ())
    tok;
  !acc

(* The answer set of the latest sampled world, read back from a query's
   marginals: [observe] adds one to every row of that world's answer, so
   those rows are exactly the ones whose count moved across the step. *)
module RM = Map.Make (struct
  type t = Relational.Row.t

  let compare = Relational.Row.compare
end)

let counts_map m =
  List.fold_left (fun acc (r, c) -> RM.add r c acc) RM.empty (Core.Marginals.counts m)

let last_answer ~before m =
  List.filter_map
    (fun (r, c) ->
      let c0 = Option.value ~default:0 (RM.find_opt r before) in
      if c = c0 + 1 then Some r else None)
    (Core.Marginals.counts m)

(* Probabilities in [0,1] and the normalizer the method promises. *)
let marginals_sane m ~samples =
  Core.Marginals.samples m = samples
  && List.for_all (fun (_, p) -> p >= 0. && p <= 1.) (Core.Marginals.estimates m)
