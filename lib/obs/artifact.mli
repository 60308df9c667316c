(** Campaign triage artifacts: a per-invocation {e manifest} (what ran:
    subcommand, resolved config, replay argv, git/host stamps) and a
    {e results} document (what happened: outcome rows, verdict ledgers,
    psync rates, availability windows), written under [--artifact-dir]
    as [<subcommand>-manifest.json] / [<subcommand>-results.json].

    Byte-identity contract: both documents are pure functions of the
    campaign inputs.  Run-only knobs ([--jobs], [--artifact-dir],
    [--replay]) are stripped from the stored argv and the ["jobs"]
    field is the literal ["any"] — campaign results are jobs-invariant
    by construction, and recording the fan-out width would break the
    byte-identity that makes artifacts diffable across hosts and job
    counts.  The [git]/[host] stamps are constant within a
    checkout/host.  No timestamps anywhere. *)

val results_schema : string
(** ["tsp-results-v1"]. *)

val manifest :
  subcommand:string -> replay:string list -> config:(Json.t -> unit) -> string
(** Render a manifest document.  [replay] is the argv (without the
    executable) that re-runs this exact campaign; [config] writes the
    resolved configuration members into the open ["config"] object. *)

val results : subcommand:string -> body:(Json.t -> unit) -> string
(** Render a results document; [body] writes the campaign-specific
    members after the shared prologue. *)

val write :
  dir:string -> subcommand:string -> manifest:string -> results:string ->
  string * string
(** Create [dir] (and parents) if needed, write both documents, return
    [(manifest_path, results_path)]. *)

val replay_args : string array -> string list
(** The replay argv derived from a raw [Sys.argv]-shaped vector: drops
    the executable name and every run-only flag ([--jobs]/[-j],
    [--artifact-dir], [--replay], in both ["--flag v"] and ["--flag=v"]
    forms). *)

val replay_of_manifest : string -> (string list, string) result
(** Read a manifest back and return its stored replay argv; [Error] on
    unreadable files, wrong schema or a malformed ["replay"] array. *)
