(* Shared plumbing for the standing-query benchmark: the clock, summary
   statistics, operation accounting, in-memory spans, and the one-line
   JSON result.

   Every wall-clock reading goes through Obs.Timer (lint R2), so the
   benchmark sees the same never-decreasing, microsecond-resolution clock
   as the library's own metrics. Spans shorter than a few microseconds are
   therefore only meaningful summed over many calls, which is how the
   per-proposal spans below are reported. *)

let now_ns = Obs.Timer.now_ns
let secs_since t0 = Obs.Timer.seconds (now_ns () - t0)
let ms_since t0 = float_of_int (now_ns () - t0) /. 1e6

(* Processor time this process has been given so far, user plus system,
   summed over its threads, in ns (getrusage, microsecond resolution).
   The gated times use it: on a virtual machine whose host takes the
   processor away for stretches (steal time), wall time counts those
   stretches and processor time does not. *)
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* ---------- statistics ---------- *)

let sorted xs = List.sort Float.compare xs

let median = function
  | [] -> 0.
  | xs ->
      let a = Array.of_list (sorted xs) in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile that still has at least ten observations beyond
   it; with fewer than forty observations there is no such tail, and the
   median is reported instead. *)
let tail = function
  | xs when List.length xs < 40 -> median xs
  | xs ->
      let a = Array.of_list (sorted xs) in
      a.(Array.length a - 11)

let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ---------- operation accounting ---------- *)

(* [attempted]/[failed] are the run's operation counts. A check that fails
   because of a fault the benchmark knows about is counted as failed but
   leaves the run [correct]; any other failed check makes it incorrect. *)
type ops = {
  mutable attempted : int;
  mutable failed : int;
  mutable unexpected : int;
}

let ops = { attempted = 0; failed = 0; unexpected = 0 }
let attempt ?(n = 1) () = ops.attempted <- ops.attempted + n

let check ?known_fault name ok =
  attempt ();
  if not ok then begin
    ops.failed <- ops.failed + 1;
    match known_fault with
    | Some fault -> Printf.eprintf "perfbench: known fault (%s): %s\n%!" fault name
    | None ->
        ops.unexpected <- ops.unexpected + 1;
        Printf.eprintf "perfbench: CHECK FAILED: %s\n%!" name
  end

let fail fmt = Printf.ksprintf failwith fmt

(* ---------- spans ---------- *)

(* Spans are recorded only while [Span.on] is set (the traced run), kept
   in memory, and written out when the run ends. Coarse spans (one per
   sample, registration, resume step) keep their start and duration;
   fine spans (one per MH proposal or commit) are only summed, because a
   single one is shorter than the clock's resolution. [attributed]
   collects the top-level spans whose union is compared against the
   traced phase's wall time. *)
module Span = struct
  module SM = Map.Make (String)

  type record = { name : string; start_ns : int; dur_ns : int }

  let on = ref false
  let records : record list ref = ref []
  let totals : (int * int) SM.t ref = ref SM.empty
  let attributed = ref 0

  let add name dur =
    let ns, n = Option.value ~default:(0, 0) (SM.find_opt name !totals) in
    totals := SM.add name (ns + dur, n + 1) !totals

  (* Fine span: summed, no record kept. *)
  let sum name f =
    if not !on then f ()
    else begin
      let t0 = now_ns () in
      let r = f () in
      add name (now_ns () - t0);
      r
    end

  (* Coarse span; [top] marks it as part of the attributed wall time. *)
  let time ?(top = false) name f =
    if not !on then f ()
    else begin
      let t0 = now_ns () in
      let r = f () in
      let dur = now_ns () - t0 in
      add name dur;
      records := { name; start_ns = t0; dur_ns = dur } :: !records;
      if top then attributed := !attributed + dur;
      r
    end

  let total_ns name = fst (Option.value ~default:(0, 0) (SM.find_opt name !totals))
  let count name = snd (Option.value ~default:(0, 0) (SM.find_opt name !totals))
  let mean_ns name = per (total_ns name) (count name)

  let write path =
    let oc = open_out path in
    List.iter
      (fun r ->
        output_string oc
          (Obs.Jsonx.obj
             [ ("name", Obs.Jsonx.str r.name);
               ("start_ns", Obs.Jsonx.int r.start_ns);
               ("dur_ns", Obs.Jsonx.int r.dur_ns) ]);
        output_char oc '\n')
      (List.rev !records);
    SM.iter
      (fun name (ns, n) ->
        output_string oc
          (Obs.Jsonx.obj
             [ ("total", Obs.Jsonx.str name);
               ("ns", Obs.Jsonx.int ns);
               ("count", Obs.Jsonx.int n) ]);
        output_char oc '\n')
      !totals;
    close_out oc
end

(* ---------- the program's own counters (read with metrics on) ---------- *)

let counter name =
  match Obs.Metrics.find Obs.Metrics.global name with
  | Some (Obs.Metrics.Counter n) -> n
  | _ -> 0

let hist_sum name =
  match Obs.Metrics.find Obs.Metrics.global name with
  | Some (Obs.Metrics.Histogram { sum; _ }) -> sum
  | _ -> 0

(* ---------- memory ---------- *)

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.equal (String.sub line 0 6) "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

(* ---------- result line ---------- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }

let result_line metrics =
  Obs.Jsonx.obj
    [ ("correct", if ops.unexpected = 0 then "true" else "false");
      ("attempted", Obs.Jsonx.int ops.attempted);
      ("failed", Obs.Jsonx.int ops.failed);
      ( "metrics",
        Obs.Jsonx.obj
          (List.map
             (fun x ->
               ( x.m_name,
                 Obs.Jsonx.obj
                   [ ("value", Obs.Jsonx.float x.m_value); ("unit", Obs.Jsonx.str x.m_unit) ]
               ))
             metrics) ) ]

(* ---------- scratch space inside the checkout ---------- *)

(* Span files, the daemon's socket and journal. The leading underscore
   keeps dune from descending into it. *)
let out_dir = "_perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
