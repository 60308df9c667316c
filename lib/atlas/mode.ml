type t = No_log | Log_only | Log_flush | Log_flush_async

let all = [ No_log; Log_only; Log_flush; Log_flush_async ]

let to_string = function
  | No_log -> "no-log"
  | Log_only -> "log-only"
  | Log_flush -> "log-flush"
  | Log_flush_async -> "log-flush-async"

let of_string = function
  | "no-log" | "nolog" | "native" -> Ok No_log
  | "log-only" | "log" | "tsp" -> Ok Log_only
  | "log-flush" | "flush" | "no-tsp" -> Ok Log_flush
  | "log-flush-async" | "async" | "deferred" -> Ok Log_flush_async
  | s -> Error (Printf.sprintf "unknown Atlas mode %S" s)

let logs = function
  | No_log -> false
  | Log_only | Log_flush | Log_flush_async -> true

let flushes = function
  | Log_flush | Log_flush_async -> true
  | No_log | Log_only -> false

let eager_data_flush = function
  | Log_flush -> true
  | No_log | Log_only | Log_flush_async -> false

let deferred_durability = function
  | Log_flush_async -> true
  | No_log | Log_only | Log_flush -> false
