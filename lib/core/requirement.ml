type scope = Persistent_heap | Whole_process
type integrity = Fail_stop | Corrupting_sections

type t = {
  tolerated : Failure_class.t list;
  scope : scope;
  integrity : integrity;
}

let default =
  { tolerated = Failure_class.all; scope = Persistent_heap; integrity = Fail_stop }

let make ?(scope = Persistent_heap) ?(integrity = Fail_stop) tolerated =
  { tolerated; scope; integrity }

let mechanism t =
  match t.integrity with
  | Fail_stop -> `Non_blocking_suffices
  | Corrupting_sections -> `Needs_rollback
