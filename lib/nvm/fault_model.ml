type t =
  | Full_rescue
  | Full_discard
  | Partial_rescue of { energy_budget_j : float }
  | Torn_lines of { prob : float }
  | Bit_rot of { flips : int }

let adversarial = function
  | Full_rescue | Full_discard -> false
  | Partial_rescue _ | Torn_lines _ | Bit_rot _ -> true

let expects_loss = function
  | Full_rescue -> false
  | Full_discard | Partial_rescue _ | Torn_lines _ | Bit_rot _ -> true

let tag = function
  | Full_rescue -> 0
  | Full_discard -> 1
  | Partial_rescue _ -> 2
  | Torn_lines _ -> 3
  | Bit_rot _ -> 4

let reference =
  [
    Full_rescue;
    Full_discard;
    Partial_rescue { energy_budget_j = 0.001 };
    Torn_lines { prob = 0.5 };
    Bit_rot { flips = 8 };
  ]

let to_string = function
  | Full_rescue -> "full-rescue"
  | Full_discard -> "full-discard"
  | Partial_rescue { energy_budget_j } ->
      Printf.sprintf "partial-rescue:%g" energy_budget_j
  | Torn_lines { prob } -> Printf.sprintf "torn:%g" prob
  | Bit_rot { flips } -> Printf.sprintf "bit-rot:%d" flips

let of_string s =
  let param name conv rest k =
    match conv rest with
    | Some v -> Ok (k v)
    | None ->
        Error (Printf.sprintf "%s: bad parameter %S in fault model %S" name rest s)
  in
  match String.index_opt s ':' with
  | None -> begin
      match s with
      | "full-rescue" | "rescue" -> Ok Full_rescue
      | "full-discard" | "discard" -> Ok Full_discard
      | "partial-rescue" -> Ok (Partial_rescue { energy_budget_j = 0.001 })
      | "torn" | "torn-lines" -> Ok (Torn_lines { prob = 0.5 })
      | "bit-rot" -> Ok (Bit_rot { flips = 8 })
      | _ -> Error (Printf.sprintf "unknown fault model %S" s)
    end
  | Some i ->
      let name = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      let nonneg_float r =
        match float_of_string_opt r with
        | Some j when Float.is_finite j && j >= 0. -> Some j
        | _ -> None
      in
      let nonneg_int r =
        match int_of_string_opt r with
        | Some n when n >= 0 -> Some n
        | _ -> None
      in
      (match name with
      | "partial-rescue" | "partial" ->
          param name nonneg_float rest (fun j ->
              Partial_rescue { energy_budget_j = j })
      | "torn" | "torn-lines" ->
          param name
            (fun r ->
              match float_of_string_opt r with
              | Some p when p >= 0. && p <= 1. -> Some p
              | _ -> None)
            rest
            (fun p -> Torn_lines { prob = p })
      | "bit-rot" ->
          param name nonneg_int rest (fun n -> Bit_rot { flips = n })
      | _ -> Error (Printf.sprintf "unknown fault model %S" s))

let of_string_list s =
  if String.equal s "all" then Ok reference
  else
    let parts = String.split_on_char ',' (String.trim s) in
    List.fold_left
      (fun acc p ->
        match acc with
        | Error _ as e -> e
        | Ok models -> (
            match of_string (String.trim p) with
            | Ok m -> Ok (m :: models)
            | Error _ as e -> e))
      (Ok []) parts
    |> Result.map List.rev

let pp ppf t = Fmt.string ppf (to_string t)
