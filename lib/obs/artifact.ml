(* Campaign artifacts: one manifest + one results document per CLI
   invocation, written under --artifact-dir with deterministic names
   (<subcommand>-manifest.json / <subcommand>-results.json).

   Byte-identity contract: both documents are pure functions of the
   campaign's inputs.  Nothing host- or schedule-dependent goes in
   except the [git]/[host] stamps (constant within a checkout/host), and
   run-only knobs — --jobs, --artifact-dir, --replay — are stripped from
   the stored replay argv, so re-running with a different fan-out or
   output directory produces byte-identical files.  The "jobs" field is
   the literal "any" for the same reason: campaign results are
   jobs-invariant by construction, and recording the fan-out width would
   break the identity that makes artifacts diffable. *)

let manifest_schema = "tsp-manifest-v1"
let results_schema = "tsp-results-v1"

let read_first_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> Some line
    | _ -> None
  with _ -> None

let git_describe =
  lazy
    (Option.value
       (read_first_line "git describe --always --dirty 2>/dev/null")
       ~default:"unknown")

let hostname = lazy (try Unix.gethostname () with _ -> "unknown")

(* Run-only flags that must not survive into the stored replay argv:
   they change where/how the campaign runs, never what it computes.
   Each goes in every spelling: "--flag v", "--flag=v" and, for the
   short "-j", the attached "-jN". *)
let run_only_flags = [ "--jobs"; "-j"; "--artifact-dir"; "--replay" ]

let replay_args argv =
  let is_run_only a = List.mem a run_only_flags in
  let has_run_only_prefix a =
    List.exists
      (fun f -> String.length a > String.length f
                && String.sub a 0 (String.length f + 1) = f ^ "=")
      run_only_flags
    || (String.length a > 2 && String.sub a 0 2 = "-j")
  in
  let rec go = function
    | [] -> []
    | a :: v :: rest when is_run_only a && not (String.length v > 0 && v.[0] = '-') ->
        ignore v;
        go rest
    | a :: rest when is_run_only a || has_run_only_prefix a -> go rest
    | a :: rest -> a :: go rest
  in
  match Array.to_list argv with [] -> [] | _exe :: rest -> go rest

let prologue j ~schema ~subcommand =
  Json.key j "schema";
  Json.str j schema;
  Json.key j "subcommand";
  Json.str j subcommand;
  Json.key j "git";
  Json.str j (Lazy.force git_describe);
  Json.key j "host";
  Json.str j (Lazy.force hostname);
  Json.key j "jobs";
  Json.str j "any"

let manifest ~subcommand ~replay ~config =
  let j = Json.create () in
  Json.obj_open j;
  prologue j ~schema:manifest_schema ~subcommand;
  Json.key j "replay";
  Json.arr_open j;
  List.iter (Json.str j) replay;
  Json.arr_close j;
  Json.key j "config";
  Json.obj_open j;
  config j;
  Json.obj_close j;
  Json.obj_close j;
  Json.contents j ^ "\n"

let results ~subcommand ~body =
  let j = Json.create () in
  Json.obj_open j;
  prologue j ~schema:results_schema ~subcommand;
  body j;
  Json.obj_close j;
  Json.contents j ^ "\n"

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_string path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let write ~dir ~subcommand ~manifest ~results =
  mkdir_p dir;
  let mpath = Filename.concat dir (subcommand ^ "-manifest.json") in
  let rpath = Filename.concat dir (subcommand ^ "-results.json") in
  write_string mpath manifest;
  write_string rpath results;
  (mpath, rpath)

let replay_of_manifest path =
  match Json.parse_file path with
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Ok doc -> (
      match Json.member "schema" doc with
      | Some (Json.Str s) when s = manifest_schema -> (
          match Json.member "replay" doc with
          | Some (Json.Arr items) -> (
              let strs =
                List.filter_map
                  (function Json.Str s -> Some s | _ -> None)
                  items
              in
              if List.length strs = List.length items then Ok strs
              else Error (path ^ ": non-string entry in \"replay\""))
          | _ -> Error (path ^ ": missing \"replay\" array"))
      | Some (Json.Str s) ->
          Error (Printf.sprintf "%s: schema %S is not %S" path s manifest_schema)
      | _ -> Error (path ^ ": missing \"schema\""))
