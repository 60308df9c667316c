(* Pure sequential oracle of the Map_intf.ops interface.

   The durable-linearizability checker (lib/check) reasons about map
   histories algebraically; this module is the executable ground truth
   it is cross-validated against: apply a candidate linearization to
   the model and compare final states.  Semantics mirror the map
   implementations exactly — [set] inserts or overwrites, [remove]
   deletes and reports presence, and [incr] on an absent key inserts
   the increment itself. *)

module M = Map.Make (Int)

let empty : int64 M.t = M.empty

let set t ~key ~value = M.add key value t

let incr t ~key ~by =
  match M.find_opt key t with
  | Some v -> M.add key (Int64.add v by) t
  | None -> M.add key by t

let remove t ~key =
  if M.mem key t then (M.remove key t, true) else (t, false)

(* In ascending key order. *)
let entries t = M.bindings t
