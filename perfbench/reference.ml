(* Reference marginals for paper-100k-q1's time to loss: Query 1 on the
   workload's 100k-token corpus, pooled (Core.Marginals.merge, §5.4) from
   independent chains. Their seeds are even; the measured chain's are
   odd, so the reference never shares a random stream with it.

   Regenerate with: sh perfbench/run.sh --make-reference *)

let path = "perfbench/data/q1_100k.ref"
let chains = 4
let samples = 3000
let seeds = List.init chains (fun c -> 2 * (c + 1))

let header ~corpus_seed ~n_tokens ~thin ~burn_in =
  Printf.sprintf
    "# query=Q1 corpus_seed=%d n_tokens=%d thin=%d burn_in=%d chains=%d samples=%d seeds=%s"
    corpus_seed n_tokens thin burn_in chains samples
    (String.concat "," (List.map string_of_int seeds))

let field line key =
  List.find_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.equal (String.sub kv 0 i) key ->
          Some (String.sub kv (i + 1) (String.length kv - i - 1))
      | _ -> None)
    (String.split_on_char ' ' line)

(* The stored estimates; fails unless they were made for this corpus. *)
let load ~corpus_seed ~n_tokens =
  let ic =
    try open_in path
    with Sys_error e -> Common.fail "reference marginals missing (%s); run --make-reference" e
  in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let hdr = input_line ic in
  let matches key v = Option.equal String.equal (field hdr key) (Some (string_of_int v)) in
  if not (matches "corpus_seed" corpus_seed && matches "n_tokens" n_tokens) then
    Common.fail "%s was made for another corpus (%s); run --make-reference" path hdr;
  let rec rows acc =
    match input_line ic with
    | line -> (
        match String.index_opt line '\t' with
        | Some i ->
            let p = float_of_string (String.sub line 0 i) in
            let s = String.sub line (i + 1) (String.length line - i - 1) in
            rows (([| Relational.Value.Text s |], p) :: acc)
        | None -> Common.fail "%s: malformed line %S" path line)
    | exception End_of_file -> List.rev acc
  in
  rows []

let make ~corpus_seed ~n_tokens ~thin ~burn_in =
  let docs = Ie.Corpus.generate_tokens ~seed:corpus_seed ~n_tokens in
  let one c =
    let pdb, _ =
      Instance.build_on ~traced:false ~chain_seed:(List.nth seeds c) ~burn_in ~corpus_s:0. docs
    in
    let reg = Serve.Registry.create pdb in
    let q = Serve.Registry.register_sql reg Instance.q1 in
    Serve.Registry.run reg ~thin ~samples;
    Serve.Registry.marginals reg q
  in
  let pooled = Core.Marginals.merge (Mcmc.Parallel.map ~n:chains one) in
  let oc = open_out path in
  output_string oc (header ~corpus_seed ~n_tokens ~thin ~burn_in ^ "\n");
  List.iter
    (fun (row, p) ->
      match row with
      | [| Relational.Value.Text s |] -> Printf.fprintf oc "%.17g\t%s\n" p s
      | _ -> Common.fail "reference: Query 1 returned a non-string row")
    (Core.Marginals.estimates pooled);
  close_out oc;
  Printf.printf "reference written to %s (%d tuples)\n%!" path
    (List.length (Core.Marginals.estimates pooled))
