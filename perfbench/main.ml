(* Standing-query benchmark entry point.

   pdb_lint: allow-file R10 — this is an executable entry point: it parses
   its own argv exactly like bin/ and bench/main.ml do, and nothing it
   calls reads the environment.

   Usage (from the repository root, through perfbench/run.sh, which
   builds this executable first):
     sh perfbench/run.sh --workload paper-100k-q1 --seed 1 --seconds 10 --trace 0
     sh perfbench/run.sh --make-reference

   The last line of standard output is one JSON object: correct,
   attempted, failed, and the metrics — the end-to-end ones with
   --trace 0, the per-layer ones with --trace 1. Progress and failed
   checks go to standard error. *)

open Common

(* Every per-layer metric, in print order, with its unit. A workload that
   never runs a layer reports 0 for it (see README.md). *)
let per_layer =
  [ ("setup.corpus_s", "s"); ("setup.load_s", "s"); ("setup.model_s", "s");
    ("setup.burn_in_s", "s"); ("setup.register_s", "s"); ("storage.bytes_per_token", "B");
    ("mcmc.walk_ns_per_step", "ns"); ("mcmc.propose_ns", "ns"); ("mcmc.commit_ns", "ns");
    ("mcmc.acceptance_rate", "ratio"); ("mcmc.minor_words_per_step", "words");
    ("delta.rows_per_sample", "rows"); ("registry.fanout_ns_per_sample", "ns");
    ("view.probe_rows_per_sample", "rows"); ("marginals.tuples", "tuples");
    ("registry.shared_nodes", "nodes"); ("register.parse_us", "us"); ("register.plan_us", "us");
    ("register.bootstrap_ms", "ms"); ("daemon.tick_ms", "ms"); ("daemon.frames_per_sample", "frames");
    ("protocol.encode_us", "us"); ("protocol.decode_us", "us"); ("protocol.bytes_per_frame", "B");
    ("wal.bytes_per_sample", "B"); ("wal.append_ns_per_sample", "ns");
    ("wal.fsync_ns_per_sample", "ns"); ("durable.compactions", "count");
    ("durable.snapshot_bytes", "B"); ("resume.load_ms", "ms"); ("resume.recover_ms", "ms");
    ("resume.replay_ms", "ms"); ("shard.plan_s", "s"); ("shard.imbalance", "ratio");
    ("shard.cut_strings", "strings"); ("shard.mh_steps_per_s", "1/s"); ("shard.merge_ms", "ms");
    ("time_to_loss_s", "s"); ("register_ms", "ms"); ("register_tail_ms", "ms"); ("resume_s", "s");
    ("samples_per_wall_s", "1/s"); ("trace.overhead", "ratio"); ("trace.attributed_share", "ratio") ]

let end_to_end = [ ("setup_s", "s"); ("samples_per_cpu_s", "1/s"); ("peak_rss_mb", "MiB") ]

(* Each workload with its set-ups per run ([setup_s] is their median):
   more where one set-up is short and its time noisy, fewer where it is
   long. *)
let workloads =
  [ ("paper-100k-q1", (5, W_paper.run, W_paper.trace));
    ("mqo-10k-64q", (5, W_mqo.run, W_mqo.trace));
    ("daemon-wal-10k", (5, W_daemon.run, W_daemon.trace));
    ("shard2-1m", (3, W_shard.run, W_shard.trace)) ]

(* Lay the measured values onto the declared table: declared order and
   units, 0 for a layer this workload does not run; a name measured but
   not declared is a benchmark bug. *)
let table declared measured =
  List.iter
    (fun x ->
      if not (List.mem_assoc x.m_name declared) then fail "undeclared metric %s" x.m_name)
    measured;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> String.equal x.m_name name) measured with
      | Some x ->
          if not (String.equal x.m_unit unit) then fail "metric %s: unit %s, declared %s" name x.m_unit unit;
          x
      | None -> m name unit 0.)
    declared

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1\n\
    \       main.exe --make-reference";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--make-reference" args then begin
    Reference.make ~corpus_seed:W_paper.corpus_seed ~n_tokens:W_paper.n_tokens
      ~thin:W_paper.thin ~burn_in:W_paper.burn_in;
    exit 0
  end;
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.equal (String.sub k 0 2) "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = parse [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let name = get "workload" in
  let int_arg k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let seed = int_arg "seed" and seconds = float_of_int (int_arg "seconds") in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let reps, run, trace =
    match List.assoc_opt name workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S\n" name;
        exit 2
  in
  ensure_dir out_dir;
  let metrics =
    if traced then begin
      let measured = trace ~seed ~seconds ~reps in
      Span.write (Filename.concat out_dir (Printf.sprintf "%s-seed%d.spans.jsonl" name seed));
      table per_layer measured
    end
    else
      let measured = run ~seed ~seconds ~reps in
      table end_to_end (measured @ [ m "peak_rss_mb" "MiB" (peak_rss_mb ()) ])
  in
  print_endline (result_line metrics)
