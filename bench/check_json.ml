(* Checker for the JSON documents the tree writes: the quick-bench
   snapshot, campaign artifacts and Chrome traces.  Parsing goes through
   the strict RFC 8259 reader in [Obs.Json].

     check_json FILE
       parse FILE and fail loudly if it is malformed.

     check_json FILE --schema tsp-manifest-v1|tsp-results-v1
       additionally validate the campaign-artifact prologue.

     check_json FILE --identical REF
       demand that FILE and REF are byte-identical. *)

let parse_file file =
  match Obs.Json.parse_file file with
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "%s: malformed JSON: %s\n" file msg;
      exit 1

(* Campaign-artifact schema validation: every manifest/results document
   Obs.Artifact writes must carry the shared prologue, and a manifest
   must additionally carry a replayable argv and a config object.
   Validation is structural — key presence and type — because the
   per-subcommand payloads deliberately differ. *)
let check_schema ~file ~schema v =
  let fail msg =
    Printf.eprintf "%s: %s\n" file msg;
    exit 1
  in
  let demand key pred what =
    match Obs.Json.member key v with
    | Some x when pred x -> ()
    | Some _ -> fail (Printf.sprintf "%S is not %s" key what)
    | None -> fail (Printf.sprintf "missing %S" key)
  in
  let open Obs.Json in
  demand "schema"
    (function Str s -> String.equal s schema | _ -> false)
    (Printf.sprintf "the string %S" schema);
  demand "subcommand" (function Str _ -> true | _ -> false) "a string";
  demand "git" (function Str _ -> true | _ -> false) "a string";
  demand "host" (function Str _ -> true | _ -> false) "a string";
  demand "jobs" (function Str "any" -> true | _ -> false) "the string \"any\"";
  if String.equal schema "tsp-manifest-v1" then begin
    demand "replay"
      (function
        | Arr items ->
            items <> []
            && List.for_all (function Str _ -> true | _ -> false) items
        | _ -> false)
      "a non-empty array of strings";
    demand "config" (function Obj _ -> true | _ -> false) "an object"
  end;
  Printf.printf "%s: valid %s\n" file schema

let read_file file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Byte-identity gate: the replay contract promises that re-running a
   campaign from its manifest reproduces the results document exactly,
   so the two files are compared as raw bytes, not parse trees. *)
let check_identical ~file ~ref_file =
  let a = read_file file and b = read_file ref_file in
  if String.equal a b then
    Printf.printf "%s: byte-identical to %s (%d bytes)\n" file ref_file
      (String.length a)
  else begin
    let n = min (String.length a) (String.length b) in
    let i = ref 0 in
    while !i < n && a.[!i] = b.[!i] do incr i done;
    Printf.eprintf
      "%s: differs from %s at byte %d (%d vs %d bytes total)\n" file ref_file
      !i (String.length a) (String.length b);
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | [ _; file ] ->
      ignore (parse_file file : Obs.Json.value);
      Printf.printf "%s: well-formed JSON\n" file
  | [ _; file; "--schema"; schema ]
    when schema = "tsp-manifest-v1" || schema = "tsp-results-v1" ->
      check_schema ~file ~schema (parse_file file)
  | [ _; file; "--identical"; ref_file ] -> check_identical ~file ~ref_file
  | _ ->
      prerr_endline
        "usage: check_json FILE\n\
        \       check_json FILE --schema tsp-manifest-v1|tsp-results-v1\n\
        \       check_json FILE --identical REF";
      exit 2
