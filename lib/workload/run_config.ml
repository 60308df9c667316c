type variant =
  | Mutex_map of Atlas.Mode.t
  | Mutex_btree of Atlas.Mode.t
  | Nonblocking_map
  | Nvtraverse_map
  | Delayfree_map

let variant_to_string = function
  | Mutex_map m -> "mutex/" ^ Atlas.Mode.to_string m
  | Mutex_btree m -> "btree/" ^ Atlas.Mode.to_string m
  | Nonblocking_map -> "non-blocking"
  | Nvtraverse_map -> "nvtraverse"
  | Delayfree_map -> "delay-free"

(* Canonical CLI spelling of each variant.  This is the single source of
   truth shared by the `tsp` argument parser and the fault injector's
   copy-pasteable reproducers; [variant_of_string] accepts these plus
   historical aliases, and the two functions round-trip for every
   variant. *)
let variant_to_cli_string = function
  | Mutex_map Atlas.Mode.No_log -> "no-log"
  | Mutex_map Atlas.Mode.Log_only -> "log-only"
  | Mutex_map Atlas.Mode.Log_flush -> "log-flush"
  | Mutex_map Atlas.Mode.Log_flush_async -> "log-flush-async"
  | Mutex_btree Atlas.Mode.No_log -> "btree-no-log"
  | Mutex_btree Atlas.Mode.Log_only -> "btree"
  | Mutex_btree Atlas.Mode.Log_flush -> "btree-flush"
  | Mutex_btree Atlas.Mode.Log_flush_async -> "btree-flush-async"
  | Nonblocking_map -> "non-blocking"
  | Nvtraverse_map -> "nvtraverse"
  | Delayfree_map -> "delay-free"

let variant_of_string = function
  | "no-log" | "native" -> Ok (Mutex_map Atlas.Mode.No_log)
  | "log-only" | "log" | "tsp" -> Ok (Mutex_map Atlas.Mode.Log_only)
  | "log-flush" | "flush" -> Ok (Mutex_map Atlas.Mode.Log_flush)
  | "log-flush-async" | "async" -> Ok (Mutex_map Atlas.Mode.Log_flush_async)
  | "non-blocking" | "skiplist" -> Ok Nonblocking_map
  | "nvtraverse" | "nv-traverse" -> Ok Nvtraverse_map
  | "delay-free" | "delayfree" | "rcas" -> Ok Delayfree_map
  | "btree" | "btree-log" -> Ok (Mutex_btree Atlas.Mode.Log_only)
  | "btree-no-log" -> Ok (Mutex_btree Atlas.Mode.No_log)
  | "btree-flush" -> Ok (Mutex_btree Atlas.Mode.Log_flush)
  | "btree-flush-async" | "btree-async" ->
      Ok (Mutex_btree Atlas.Mode.Log_flush_async)
  | s -> Error (Printf.sprintf "unknown variant %S" s)

let all_variants =
  [
    Mutex_map Atlas.Mode.No_log;
    Mutex_map Atlas.Mode.Log_only;
    Mutex_map Atlas.Mode.Log_flush;
    Mutex_map Atlas.Mode.Log_flush_async;
    Mutex_btree Atlas.Mode.No_log;
    Mutex_btree Atlas.Mode.Log_only;
    Mutex_btree Atlas.Mode.Log_flush;
    Mutex_btree Atlas.Mode.Log_flush_async;
    Nonblocking_map;
    Nvtraverse_map;
    Delayfree_map;
  ]

type workload =
  | Counters of { h_keys : int; preload : bool }
  | Mixed of { h_keys : int; read_pct : int }
  | Wide of { h_keys : int; value_words : int }
  | Ycsb of { preset : Ycsb.preset; records : int }
  | Transfers of { accounts : int; initial_balance : int }

type recovery_mode = Eager | Parallel_gc of int | Incremental_gc

let recovery_mode_to_string = function
  | Eager -> "eager"
  | Parallel_gc jobs -> Fmt.str "parallel:%d" jobs
  | Incremental_gc -> "incremental"

let recovery_mode_of_string s =
  match String.lowercase_ascii s with
  | "eager" -> Ok Eager
  | "parallel" -> Ok (Parallel_gc 2)
  | "incremental" | "lazy" -> Ok Incremental_gc
  | s when String.starts_with ~prefix:"parallel:" s -> (
      match int_of_string_opt (String.sub s 9 (String.length s - 9)) with
      | Some j when j >= 1 -> Ok (Parallel_gc j)
      | _ -> Error (Printf.sprintf "invalid parallel job count in %S" s))
  | s ->
      Error
        (Printf.sprintf
           "unknown recovery mode %S (eager, parallel[:N], incremental)" s)

type config = {
  platform : Nvm.Config.t;
  variant : variant;
  workload : workload;
  threads : int;
  iterations : int;
  seed : int;
  crash_at_step : int option;
  populate_objects : int;
  recovery_mode : recovery_mode;
  hardware : Tsp_core.Hardware.t;
  failure : Tsp_core.Failure_class.t;
  fault_model : Nvm.Fault_model.t option;
  journal : bool;
  n_buckets : int;
  log_mib : int;
  atlas_costs : Atlas.Runtime.costs;
  cost_jitter : int;
  iter_cycles : int;
  hash_op_cycles : int;
  skip_op_cycles : int;
  instrument :
    (Sched.Scheduler.t -> Tsp_maps.Map_intf.ops -> Tsp_maps.Map_intf.ops)
    option;
  tracer : Obs.Tracer.t option;
}
