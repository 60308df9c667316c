type scan =
  load:(int -> int) -> addr:int -> words:int -> emit:(int -> unit) -> unit

type entry = { name : string; scan : scan }

(* Indexed by kind id.  Ids fit in a byte, so the per-object lookup of
   every recovery scan is one array read: no [Some] box and no
   polymorphic hash, as a [Hashtbl.find_opt] would cost. *)
let table : entry option array = Array.make 256 None
let find kind = if kind >= 0 && kind <= 0xff then table.(kind) else None
let next_id = ref 16 (* user kinds start here; low ids are builtins *)

let register ?kind ~name ~scan () =
  let id =
    match kind with
    | Some k -> k
    | None ->
        while Option.is_some (find !next_id) do
          incr next_id
        done;
        let k = !next_id in
        incr next_id;
        k
  in
  if id <= 0 || id > 0xff then Fmt.invalid_arg "Kind.register: bad id %d" id;
  (match table.(id) with
  | Some e when not (String.equal e.name name) ->
      Fmt.invalid_arg "Kind.register: id %d already bound to %s" id e.name
  | Some _ ->
      (* Idempotent re-registration: keep the original scanner so a kind
         cannot be silently neutered after objects of it exist. *)
      ()
  | None -> table.(id) <- Some { name; scan });
  id

let no_pointers : scan = fun ~load:_ ~addr:_ ~words:_ ~emit:_ -> ()

let every_word : scan =
 fun ~load ~addr ~words ~emit ->
  for i = 0 to words - 1 do
    let v = load (addr + (8 * i)) in
    if v <> 0 then emit v
  done

let raw = register ~kind:1 ~name:"raw" ~scan:no_pointers ()
let all_pointers = register ~kind:2 ~name:"all_pointers" ~scan:every_word ()

let scan_object ~kind ~load ~addr ~words ~emit =
  match find kind with
  | Some e -> e.scan ~load ~addr ~words ~emit
  | None -> Fmt.invalid_arg "Kind.scan_object: unknown kind %d" kind

let name kind =
  match find kind with
  | Some e -> e.name
  | None -> Printf.sprintf "unknown-%d" kind

let is_registered kind = Option.is_some (find kind)
