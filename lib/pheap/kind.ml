type scan =
  load:(int -> int) -> addr:int -> words:int -> emit:(int -> unit) -> unit

type entry = { name : string; scan : scan }

let table : (int, entry) Hashtbl.t = Hashtbl.create 16
let next_id = ref 16 (* user kinds start here; low ids are builtins *)

let register ?kind ~name ~scan () =
  let id =
    match kind with
    | Some k -> k
    | None ->
        while Hashtbl.mem table !next_id do
          incr next_id
        done;
        let k = !next_id in
        incr next_id;
        k
  in
  if id <= 0 || id > 0xff then Fmt.invalid_arg "Kind.register: bad id %d" id;
  (match Hashtbl.find_opt table id with
  | Some e when not (String.equal e.name name) ->
      Fmt.invalid_arg "Kind.register: id %d already bound to %s" id e.name
  | Some _ ->
      (* Idempotent re-registration: keep the original scanner so a kind
         cannot be silently neutered after objects of it exist. *)
      ()
  | None -> Hashtbl.replace table id { name; scan });
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

let scan_object ~kind =
  match Hashtbl.find_opt table kind with
  | Some e -> e.scan
  | None -> Fmt.invalid_arg "Kind.scan_object: unknown kind %d" kind

let name kind =
  match Hashtbl.find_opt table kind with
  | Some e -> e.name
  | None -> Printf.sprintf "unknown-%d" kind

let is_registered kind = Hashtbl.mem table kind
