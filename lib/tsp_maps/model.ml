module M = Map.Make (Int)

type t = int64 M.t

let empty = M.empty

let set t ~key ~value = M.add key value t
let get t ~key = M.find_opt key t

let incr t ~key ~by =
  match M.find_opt key t with
  | Some v -> M.add key (Int64.add v by) t
  | None -> M.add key by t

let remove t ~key =
  if M.mem key t then (M.remove key t, true) else (t, false)

let entries t = M.bindings t

let sort_entries l =
  List.sort
    (fun (k1, v1) (k2, v2) ->
      match Int.compare k1 k2 with 0 -> Int64.compare v1 v2 | c -> c)
    l

let equal_entries a b =
  List.equal
    (fun (k1, v1) (k2, v2) -> k1 = k2 && Int64.equal v1 v2)
    (sort_entries a) (sort_entries b)
