(* daemon-wal-10k: Serve.Daemon over Serve.Durable with the WAL on, driven
   in-process tick by tick through its Unix socket by two closed-loop
   clients. Each client registers a query from a fixed pool, streams it
   for a fixed number of samples, detaches, and starts over. Once per run
   the daemon is crashed without a checkpoint (Serve.Daemon.close, the
   state a SIGKILL leaves) and resumed from its WAL; the clients reattach
   by name. The registry thus takes writes beside reads — mid-run
   bootstraps, unregistrations, one journal append per sample, several
   compactions and one replay — so the WAL, protocol, scheduler and
   registration paths do work that the other workloads skip. *)

open Common

let corpus_seed = 91
let n_tokens = 10_000
let thin = 100
let burn_in = 100_000
let policy = { Serve.Durable.fsync_every = 8; compact_ratio = 0.5 }
let frames_per_registration = 20
let clients = 2

let pool =
  [| Instance.q1; Instance.q2; Instance.q4; W_mqo.query 0; W_mqo.query 17; W_mqo.query 42;
     W_mqo.query 51; W_mqo.query 30 |]

(* The chain, fresh- and resume-side: batch reloads aligned with thin so
   a WAL resume is sample-path identical. *)
let make_pdb ~traced ~seed db =
  Instance.chain ~traced ~chain_seed:(W_paper.chain_seed seed) ~proposals_per_batch:thin db

let config dir =
  {
    (Serve.Daemon.default_config ~socket_path:(Filename.concat dir "d.sock")) with
    Serve.Daemon.thin;
    max_clients = 8;
    max_plans = 64;
    max_bootstraps_per_tick = 8;
  }

let snap dir = Filename.concat dir "daemon.ckpt"
let wal dir = Filename.concat dir "daemon.wal"

(* ---------- a line client on a non-blocking socket ---------- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t }

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.set_nonblock fd;
  { fd; buf = Buffer.create 4096 }

let disconnect c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c req =
  let line = Serve.Protocol.encode_request req ^ "\n" in
  let n = Unix.write_substring c.fd line 0 (String.length line) in
  if n <> String.length line then fail "daemon: short request write"

let chunk_buf = Bytes.create 65536

(* Complete lines read so far. *)
let read_lines c =
  let rec pull () =
    match Unix.read c.fd chunk_buf 0 (Bytes.length chunk_buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes c.buf chunk_buf 0 n;
        pull ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  pull ();
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some last ->
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s (last + 1) (String.length s - last - 1);
      String.split_on_char '\n' (String.sub s 0 last)

(* ---------- the closed-loop clients ---------- *)

type phase =
  | Registering of { name : string; sql : string; t0 : int }
  | Streaming of { query : int; name : string; sql : string; t0 : int; mutable got : int }
  | Detaching of { query : int }

type client = {
  idx : int;
  mutable conn : conn;
  mutable next : int;  (** registrations started *)
  mutable phase : phase;
  mutable frames : (int * Serve.Protocol.estimates) list;  (** current query's, newest first *)
}

type stats = {
  mutable register_ms : float list;
  mutable updates : int;
  mutable frame_bytes : int;
}

let stats = { register_ms = []; updates = 0; frame_bytes = 0 }

let estimates_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ra, pa) (rb, pb) ->
         String.equal ra rb && Int64.equal (Int64.bits_of_float pa) (Int64.bits_of_float pb))
       a b

(* Client [c]'s [k]-th registration is pool entry [3c + k]: the two
   clients always hold different queries, and the same ones whatever the
   seed, which drives the chain only. *)
let start_registration cl =
  let k = cl.next in
  cl.next <- k + 1;
  let sql = pool.(((cl.idx * 3) + k) mod Array.length pool) in
  let name = Printf.sprintf "c%d-%d" cl.idx k in
  cl.frames <- [];
  send cl.conn (Serve.Protocol.Register { sql; name = Some name });
  cl.phase <- Registering { name; sql; t0 = now_ns () }

let decode line =
  Span.sum "protocol.decode" (fun () ->
      match Serve.Protocol.decode_response line with
      | Result.Ok r -> r
      | Result.Error msg -> fail "daemon: undecodable frame (%s)" msg)

let handle cl line =
  match (decode line, cl.phase) with
  | Serve.Protocol.Registered { query; _ }, Registering { name; sql; t0 } ->
      attempt ();
      send cl.conn (Serve.Protocol.Stream { query; every = 1 });
      cl.phase <- Streaming { query; name; sql; t0; got = 0 }
  | Serve.Protocol.Streaming _, _ -> ()
  | (Serve.Protocol.Update { query; sample; estimates } as u), Streaming s when query = s.query ->
      attempt ();
      stats.updates <- stats.updates + 1;
      stats.frame_bytes <- stats.frame_bytes + String.length line;
      if !Span.on then
        ignore (Span.sum "protocol.encode" (fun () -> Serve.Protocol.encode_response u) : string);
      if s.got = 0 then stats.register_ms <- ms_since s.t0 :: stats.register_ms;
      s.got <- s.got + 1;
      cl.frames <- (sample, estimates) :: cl.frames;
      if s.got = frames_per_registration then begin
        send cl.conn (Serve.Protocol.Detach { query });
        cl.phase <- Detaching { query }
      end
  | Serve.Protocol.Update _, _ -> ()
  | Serve.Protocol.Detached { query; estimates; _ }, Detaching d when query = d.query ->
      let last = match cl.frames with (_, e) :: _ -> e | [] -> [] in
      check "daemon: detached marginals equal the last frame streamed" (estimates_equal estimates last);
      start_registration cl
  | Serve.Protocol.Error { code; msg }, _ ->
      check
        (Printf.sprintf "daemon: error frame %s: %s" (Serve.Protocol.error_code_to_string code) msg)
        false
  | _ -> fail "daemon: unexpected frame %s" line

let serve_clients cls =
  List.iter (fun cl -> List.iter (handle cl) (read_lines cl.conn)) cls

(* ---------- one daemon lifetime ---------- *)

type inst = {
  dir : string;
  mutable live : (Serve.Durable.t * Serve.Daemon.t) option;  (** [None] only while crashed *)
  mutable compactions : int;  (** by durable handles already replaced *)
  cls : client list;
}

let durable i = fst (Option.get i.live)
let daemon i = snd (Option.get i.live)

let setup ~traced ~seed ~dir () =
  rm_rf dir;
  Sys.mkdir dir 0o755;
  let docs, corpus_s =
    Instance.timed (fun () -> Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens)
  in
  let pdb, times =
    Instance.build_on ~traced ~chain_seed:(W_paper.chain_seed seed) ~proposals_per_batch:thin
      ~burn_in ~corpus_s docs
  in
  let durable =
    Serve.Durable.start ~snap_path:(snap dir) ~wal_path:(wal dir) policy (Serve.Registry.create pdb)
  in
  let daemon = Serve.Daemon.of_durable (config dir) durable in
  let cls =
    List.init clients (fun idx ->
        { idx; conn = connect (Filename.concat dir "d.sock"); next = 0;
          phase = Detaching { query = -1 }; frames = [] })
  in
  ({ dir; live = Some (durable, daemon); compactions = 0; cls }, times)

(* The crash: sockets dropped, no checkpoint, the journal writer
   abandoned with whatever group-commit batch it had not written. The
   crashed daemon's memory is then collected, as the death of its
   process would free it. *)
let crash i =
  let crashed_at = Serve.Daemon.samples (daemon i) in
  Serve.Daemon.close (daemon i);
  i.compactions <- i.compactions + Serve.Durable.compactions (durable i);
  i.live <- None;
  List.iter (fun cl -> disconnect cl.conn) i.cls;
  crashed_at

(* Crash, resume from snapshot + WAL, reattach every client by name, and
   check each resumed query against the frame it streamed at the
   recovered sample. *)
let crash_and_resume ~traced ~seed i =
  let crashed_at = crash i in
  Gc.compact ();
  let probe =
    if not traced then []
    else begin
      let copy = i.dir ^ "-copy" in
      rm_rf copy;
      Sys.mkdir copy 0o755;
      let cp src dst =
        let ic = open_in_bin src in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let oc = open_out_bin dst in
        output_string oc s;
        close_out oc
      in
      cp (snap i.dir) (snap copy);
      cp (wal i.dir) (wal copy);
      let _, load_s = Instance.timed (fun () -> Checkpoint.State.load ~path:(snap copy)) in
      let _, recover_s = Instance.timed (fun () -> Checkpoint.Wal.recover ~path:(wal copy)) in
      rm_rf copy;
      [ load_s; recover_s ]
    end
  in
  let t0 = now_ns () in
  let d =
    Serve.Durable.resume ~snap_path:(snap i.dir) ~wal_path:(wal i.dir) policy
      ~make_pdb:(make_pdb ~traced ~seed)
  in
  i.live <- Some (d, Serve.Daemon.of_durable (config i.dir) d);
  let resume_s = secs_since t0 in
  attempt ();
  let reg = Serve.Durable.registry (durable i) in
  let recovered = Serve.Registry.samples reg in
  let compared = ref 0 in
  List.iter
    (fun cl ->
      cl.conn <- connect (Filename.concat i.dir "d.sock");
      match cl.phase with
      | Streaming s when List.exists (fun (_, n) -> String.equal n s.name) (Serve.Registry.queries reg) ->
          let qid, _ = List.find (fun (_, n) -> String.equal n s.name) (Serve.Registry.queries reg) in
          incr compared;
          check "daemon: resumed marginals equal the frame at the recovered sample"
            (match List.assoc_opt recovered cl.frames with
            | Some frame ->
                estimates_equal frame
                  (List.map
                     (fun (r, p) -> (Relational.Row.to_string r, p))
                     (Core.Marginals.estimates (Serve.Registry.marginals reg qid)))
            | None -> false);
          (* Reattach by name and stream on from the recovered sample. *)
          cl.frames <- List.filter (fun (smp, _) -> smp <= recovered) cl.frames;
          send cl.conn (Serve.Protocol.Register { sql = s.sql; name = Some s.name });
          cl.phase <- Registering { name = s.name; sql = s.sql; t0 = now_ns () }
      | _ -> start_registration cl)
    i.cls;
  Printf.eprintf "perfbench: daemon crashed at sample %d, resumed at %d, %d queries compared\n%!"
    crashed_at recovered !compared;
  let load_recover = List.fold_left ( +. ) 0. probe in
  ( resume_s,
    match probe with
    | [ load_s; recover_s ] ->
        [ m "resume.load_ms" "ms" (load_s *. 1e3);
          m "resume.recover_ms" "ms" (recover_s *. 1e3);
          m "resume.replay_ms" "ms" ((resume_s -. load_recover) *. 1e3) ]
    | _ -> [] )

(* The crash waits until every client is mid-stream with more frames
   than one group-commit batch can lose, so each resumed query has a
   streamed frame at the recovered sample to be checked against; until
   the first client holds the first query of its cycle through the pool
   (the clients move in step, so the second then holds its fourth); and
   until the log holds half a compaction interval. Every run then replays
   about the same backlog into the same registered set. *)
let crash_point i =
  Serve.Durable.wal_bytes (durable i) * 2
  >= int_of_float
       (policy.Serve.Durable.compact_ratio *. float_of_int (Serve.Durable.snapshot_bytes (durable i)))
  && (match i.cls with
     | cl :: _ -> (cl.next - 1) mod Array.length pool = 0
     | [] -> true)
  && List.for_all
       (fun cl ->
         match cl.phase with
         | Streaming s -> s.got > policy.Serve.Durable.fsync_every + 1
         | Registering _ | Detaching _ -> false)
       i.cls

(* Tick the daemon and serve the clients for [seconds], crashing once
   at the first crash point after [crash_at] seconds when given. Returns
   samples per second of processor time and of wall time spent serving
   (the crash and resume are left out of both), the resume time and its
   breakdown, the median tick that sampled, the samples, the log growth,
   and the wall time in ns. *)
let drive ~traced ~seed ~seconds ~crash_at i =
  let ticks = ref [] and resume = ref (0., []) and crashed = ref (Option.is_none crash_at) in
  let start = now_ns () and down_ns = ref 0 in
  let cpu_start = cpu_ns () and down_cpu = ref 0 in
  let wal_grown = ref 0 and samples = ref 0 in
  while secs_since start < seconds do
    let s0 = Serve.Daemon.samples (daemon i) and w0 = Serve.Durable.wal_bytes (durable i) in
    let t0 = now_ns () in
    Span.time ~top:true "daemon.tick" (fun () -> Serve.Daemon.tick (daemon i) ~timeout:0.);
    let dt = now_ns () - t0 in
    let s1 = Serve.Daemon.samples (daemon i) in
    if s1 > s0 then begin
      samples := !samples + (s1 - s0);
      attempt ~n:(s1 - s0) ();
      ticks := (float_of_int dt /. 1e6) :: !ticks;
      wal_grown := !wal_grown + max 0 (Serve.Durable.wal_bytes (durable i) - w0)
    end;
    Span.time ~top:true "clients" (fun () -> serve_clients i.cls);
    match crash_at with
    | Some at when (not !crashed) && secs_since start >= at && crash_point i ->
        crashed := true;
        let t = now_ns () and c = cpu_ns () in
        resume := crash_and_resume ~traced ~seed i;
        down_cpu := !down_cpu + (cpu_ns () - c);
        down_ns := !down_ns + (now_ns () - t)
    | _ -> ()
  done;
  let wall = now_ns () - start and cpu = cpu_ns () - cpu_start in
  let rate ns = float_of_int !samples /. Obs.Timer.seconds ns in
  ( rate (cpu - !down_cpu), rate (wall - !down_ns),
    !resume, median !ticks, !samples, !wal_grown, wall )

let finish i =
  Serve.Daemon.close (daemon i);
  Serve.Durable.close (durable i);
  List.iter (fun cl -> disconnect cl.conn) i.cls;
  rm_rf i.dir

let dir_for () = Filename.concat out_dir (Printf.sprintf "daemon-%d" (Unix.getpid ()))

let setups ~traced ~seed ~reps =
  (* Each set-up owns the socket and directory; an earlier one is torn
     down (off the clock) before the next starts. *)
  let i, setup_s, times =
    Instance.repeat_setup ~discard:finish ~reps (setup ~traced ~seed ~dir:(dir_for ()))
  in
  List.iter start_registration i.cls;
  (i, setup_s, times)

let run ~seed ~seconds ~reps =
  let i, setup_s, _ = setups ~traced:false ~seed ~reps in
  let rate, _, _, _, _, _, _ =
    drive ~traced:false ~seed ~seconds ~crash_at:(Some (seconds /. 2.)) i
  in
  finish i;
  [ m "setup_s" "s" setup_s; m "samples_per_cpu_s" "1/s" rate ]

let trace ~seed ~seconds ~reps =
  let i, _, times = setups ~traced:true ~seed ~reps in
  let half = seconds /. 2. in
  (* The crash is in the untraced half, so the resume is timed with
     tracing off. *)
  let rate_plain, wall_rate, (resume_s, resume), _, _, _, _ =
    drive ~traced:true ~seed ~seconds:half ~crash_at:(Some (half /. 2.)) i
  in
  let register_ms = stats.register_ms in
  let updates0 = stats.updates and bytes0 = stats.frame_bytes in
  let compactions0 = i.compactions + Serve.Durable.compactions (durable i) in
  Obs.Metrics.set_enabled true;
  let append0 = hist_sum "wal.append_ns" and fsync0 = hist_sum "wal.fsync_ns" in
  Span.on := true;
  let rate_traced, _, _, tick_ms, samples, wal_grown, wall =
    drive ~traced:true ~seed ~seconds:half ~crash_at:None i
  in
  Span.on := false;
  let append = hist_sum "wal.append_ns" - append0 and fsync = hist_sum "wal.fsync_ns" - fsync0 in
  Obs.Metrics.set_enabled false;
  let updates = stats.updates - updates0 and bytes = stats.frame_bytes - bytes0 in
  let reg = Serve.Durable.registry (durable i) in
  let db = Core.Pdb.db (Serve.Registry.pdb reg) in
  let st = Core.Pdb.stats (Serve.Registry.pdb reg) in
  let tuples =
    List.fold_left
      (fun acc (q, _) -> acc + List.length (Core.Marginals.counts (Serve.Registry.marginals reg q)))
      0 (Serve.Registry.queries reg)
  in
  let shared = Serve.Registry.shared_nodes reg in
  let compactions = i.compactions + Serve.Durable.compactions (durable i) - compactions0 in
  let snapshot_bytes = Serve.Durable.snapshot_bytes (durable i) in
  finish i;
  let docs = Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens in
  Instance.setup_metrics times @ resume
  @ Inproc.register_probe db (Array.to_list pool)
  @ [ m "storage.bytes_per_token" "B" (Instance.bytes_per_token docs);
      m "mcmc.propose_ns" "ns" (Span.mean_ns "mcmc.propose");
      m "mcmc.commit_ns" "ns" (Span.mean_ns "mcmc.commit");
      m "mcmc.acceptance_rate" "ratio" (per st.Mcmc.Metropolis.accepted st.Mcmc.Metropolis.proposed);
      m "marginals.tuples" "tuples" (float_of_int tuples);
      m "registry.shared_nodes" "nodes" (float_of_int shared);
      m "daemon.tick_ms" "ms" tick_ms;
      m "daemon.frames_per_sample" "frames" (per updates samples);
      m "protocol.encode_us" "us" (Span.mean_ns "protocol.encode" /. 1e3);
      m "protocol.decode_us" "us" (Span.mean_ns "protocol.decode" /. 1e3);
      m "protocol.bytes_per_frame" "B" (per bytes updates);
      m "wal.bytes_per_sample" "B" (per wal_grown samples);
      m "wal.append_ns_per_sample" "ns" (per append samples);
      m "wal.fsync_ns_per_sample" "ns" (per fsync samples);
      m "durable.compactions" "count" (float_of_int compactions);
      m "durable.snapshot_bytes" "B" (float_of_int snapshot_bytes);
      m "register_ms" "ms" (median register_ms);
      m "register_tail_ms" "ms" (tail register_ms);
      m "resume_s" "s" resume_s;
      m "samples_per_wall_s" "1/s" wall_rate;
      m "trace.overhead" "ratio" (rate_traced /. rate_plain);
      m "trace.attributed_share" "ratio" (per !Span.attributed wall) ]
