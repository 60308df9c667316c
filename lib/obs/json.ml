(* One JSON writer for the bench snapshots and the campaign artifacts;
   Chrome traces are printed event by event with [Printf] and share only
   [escape].  Allocation-conscious: the only state besides the output
   buffer is three scalar fields, and the between-element commas are
   tracked in a single int bitmask indexed by nesting depth — no
   per-container allocation, no closure captures. *)

type t = {
  buf : Buffer.t;
  mutable depth : int;
  mutable mask : int;  (* bit d set: container at depth d has elements *)
  mutable after_key : bool;
}

let create ?(size = 4096) () =
  { buf = Buffer.create size; depth = 0; mask = 0; after_key = false }

let contents t = Buffer.contents t.buf
let to_channel oc t = Buffer.output_buffer oc t.buf

(* Comma discipline: every element (value or key) at depth d emits a
   comma iff bit d is already set, then sets it; a value directly after
   a key emits nothing (the key already separated the pair). *)
let elem t =
  if t.after_key then t.after_key <- false
  else begin
    let bit = 1 lsl t.depth in
    if t.mask land bit <> 0 then Buffer.add_char t.buf ',';
    t.mask <- t.mask lor bit
  end

let enter t =
  t.depth <- t.depth + 1;
  if t.depth > 60 then invalid_arg "Json: nesting deeper than 60";
  t.mask <- t.mask land lnot (1 lsl t.depth)

let leave t =
  t.depth <- t.depth - 1;
  if t.depth < 0 then invalid_arg "Json: unbalanced close"

let obj_open t =
  elem t;
  Buffer.add_char t.buf '{';
  enter t

let obj_close t =
  Buffer.add_char t.buf '}';
  leave t

let arr_open t =
  elem t;
  Buffer.add_char t.buf '[';
  enter t

let arr_close t =
  Buffer.add_char t.buf ']';
  leave t

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let add_escaped buf s =
  (* Fast path: strings without escapable bytes (the overwhelming
     majority of keys and values) are appended in one call. *)
  let clean = ref true in
  String.iter
    (fun c -> if c = '"' || c = '\\' || Char.code c < 0x20 then clean := false)
    s;
  if !clean then Buffer.add_string buf s else Buffer.add_string buf (escape s)

let key t name =
  elem t;
  Buffer.add_char t.buf '"';
  add_escaped t.buf name;
  Buffer.add_string t.buf "\":";
  t.after_key <- true

let str t s =
  elem t;
  Buffer.add_char t.buf '"';
  add_escaped t.buf s;
  Buffer.add_char t.buf '"'

let int t v =
  elem t;
  Buffer.add_string t.buf (string_of_int v)

let bool t v =
  elem t;
  Buffer.add_string t.buf (if v then "true" else "false")

let null t =
  elem t;
  Buffer.add_string t.buf "null"

(* The NaN guard: JSON has no NaN/inf literal, and a snapshot with a
   bare "nan" token fails the strict checker — represent non-finite
   values as null, which every consumer treats as "absent". *)
let float_repr ?(dp = 4) v =
  if Float.is_finite v then Printf.sprintf "%.*f" dp v else "null"

let float ?dp t v =
  elem t;
  Buffer.add_string t.buf (float_repr ?dp v)

let raw t s =
  elem t;
  Buffer.add_string t.buf s

(* Start the next element on a new line: write its separator now, then
   the newline, and mark the separator as written (the same state a key
   leaves behind).  Lets a document be laid out one record per line, for
   line-based diffs, without a pretty-printer. *)
let line_break t =
  elem t;
  Buffer.add_char t.buf '\n';
  t.after_key <- true

(* --- Reader -------------------------------------------------------- *)

(* A small recursive-descent parser: the --replay path reads artifacts
   back through it, and [check_json] uses it as the well-formedness gate
   for every document the tree writes, so it enforces the RFC 8259
   number and string grammar rather than whatever [float_of_string]
   happens to accept.  Numbers are kept as floats: the replay consumer
   only ever reads strings and arrays. *)

type value =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    advance ()
  in
  let literal word v =
    String.iter (fun c -> expect c) word;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '\000' -> fail "unterminated string"
      | '"' -> advance ()
      | '\\' -> (
          advance ();
          let c = peek () in
          advance ();
          match c with
          | '"' -> Buffer.add_char buf '"'; go ()
          | '\\' -> Buffer.add_char buf '\\'; go ()
          | '/' -> Buffer.add_char buf '/'; go ()
          | 'n' -> Buffer.add_char buf '\n'; go ()
          | 'r' -> Buffer.add_char buf '\r'; go ()
          | 't' -> Buffer.add_char buf '\t'; go ()
          | 'b' -> Buffer.add_char buf '\b'; go ()
          | 'f' -> Buffer.add_char buf '\012'; go ()
          | 'u' ->
              let is_hex = function
                | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                | _ -> false
              in
              let hex = if !pos + 4 <= n then String.sub s !pos 4 else "" in
              if hex = "" || not (String.for_all is_hex hex) then
                fail "invalid \\u escape";
              let code = int_of_string ("0x" ^ hex) in
              pos := !pos + 4;
              (* Only ASCII escapes are produced by our writer; anything
                 else is preserved as a replacement byte. *)
              Buffer.add_char buf
                (if code < 0x80 then Char.chr code else '?');
              go ()
          | _ -> fail "invalid escape")
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  (* RFC 8259: an optional minus, then [0] or a digit run without a
     leading zero, then an optional fraction and exponent, each with at
     least one digit. *)
  let parse_number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while peek () >= '0' && peek () <= '9' do
        advance ()
      done;
      if !pos = d0 then fail "expected a digit"
    in
    if peek () = '-' then advance ();
    if peek () = '0' then advance () else digits ();
    if peek () = '.' then begin
      advance ();
      digits ()
    end;
    if peek () = 'e' || peek () = 'E' then begin
      advance ();
      if peek () = '+' || peek () = '-' then advance ();
      digits ()
    end;
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '"' -> Str (parse_string ())
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let acc = ref [ parse_value () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            acc := parse_value () :: !acc;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !acc)
        end
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let pair () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let acc = ref [ pair () ] in
          skip_ws ();
          while peek () = ',' do
            advance ();
            acc := pair () :: !acc;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !acc)
        end
    | c when c = '-' || (c >= '0' && c <= '9') -> parse_number ()
    | _ -> fail "unexpected character"
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing bytes at %d" !pos)
    else Ok v
  with Bad msg -> Error msg

let parse_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | s -> parse s

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None
