(* A minimal JSON document builder, printer and parser (no external
   dependencies).

   Used to export traces, statistics and measurements for analysis outside
   the simulator (plotting, diffing runs), and - since the live runtime -
   to read back the line-delimited event logs real nodes write, so the
   cluster orchestrator can reassemble a global trace for the checker. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let null = Null
let bool b = Bool b
let int i = Int i
let float f = Float f
let string s = String s
let list xs = List xs
let obj fields = Obj fields

let of_option f = function None -> Null | Some x -> f x

let escape s =
  let buffer = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buffer "\\\""
      | '\\' -> Buffer.add_string buffer "\\\\"
      | '\n' -> Buffer.add_string buffer "\\n"
      | '\r' -> Buffer.add_string buffer "\\r"
      | '\t' -> Buffer.add_string buffer "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buffer (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buffer c)
    s;
  Buffer.contents buffer

let float_literal f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else if Float.is_nan f then "null" (* JSON has no NaN *)
  else
    (* Shortest of %g / %.15g / %.17g that parses back to the same float:
       sim times stay short ("2.5"), while live traces' absolute wall-clock
       stamps (~1.75e9 s) keep their sub-second digits. *)
    let s = Printf.sprintf "%g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

(* Width-aware printing: any value whose one-line rendering fits in
   [max_width] columns (counting its left margin) is printed on one line;
   only larger lists/objects break, one element per line, indented by two.
   This keeps scalar records compact ("one row per measurement") instead of
   the one-token-per-line output a naive hv-box produces. *)

let max_width = 80

let atom = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> float_literal f
  | String s -> "\"" ^ escape s ^ "\""
  | List _ | Obj _ -> assert false

let rec add_compact buf = function
  | (Null | Bool _ | Int _ | Float _ | String _) as v ->
    Buffer.add_string buf (atom v)
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        add_compact buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf "\"";
        Buffer.add_string buf (escape k);
        Buffer.add_string buf "\": ";
        add_compact buf v)
      fields;
    Buffer.add_char buf '}'

let compact_string t =
  let buf = Buffer.create 128 in
  add_compact buf t;
  Buffer.contents buf

let to_compact_string = compact_string

let rec render buf ~col t =
  let one_line = compact_string t in
  if col + String.length one_line <= max_width then
    Buffer.add_string buf one_line
  else begin
    let margin = String.make col ' ' in
    let item_col = col + 2 in
    let item_margin = String.make item_col ' ' in
    match t with
    | Null | Bool _ | Int _ | Float _ | String _ ->
      (* An over-long atom cannot be broken. *)
      Buffer.add_string buf one_line
    | List xs ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf item_margin;
          render buf ~col:item_col x)
        xs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf margin;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf item_margin;
          Buffer.add_string buf "\"";
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          render buf ~col:(item_col + String.length (escape k) + 4) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf margin;
      Buffer.add_char buf '}'
  end

let to_string t =
  let buf = Buffer.create 1024 in
  render buf ~col:0 t;
  Buffer.contents buf

let pp ppf t = Fmt.string ppf (to_string t)

(* ---- parsing ----

   Recursive descent over the string; enough JSON for what this repository
   itself emits (which is all it ever reads back). Numbers without '.', 'e'
   or 'E' become [Int], everything else [Float]; "\uXXXX" escapes are
   decoded to UTF-8 (surrogate pairs included). *)

exception Parse_error of { pos : int; msg : string }

type parser_state = { src : string; mutable pos : int }

let parse_fail st msg = raise (Parse_error { pos = st.pos; msg })

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let skip_ws st =
  let n = String.length st.src in
  while
    st.pos < n
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance st
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> parse_fail st (Printf.sprintf "expected %c, found %c" c c')
  | None -> parse_fail st (Printf.sprintf "expected %c, found end of input" c)

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else parse_fail st (Printf.sprintf "expected %s" word)

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

let parse_hex4 st =
  if st.pos + 4 > String.length st.src then parse_fail st "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    let d =
      match st.src.[st.pos] with
      | '0' .. '9' as c -> Char.code c - Char.code '0'
      | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
      | _ -> parse_fail st "bad hex digit in \\u escape"
    in
    v := (!v * 16) + d;
    advance st
  done;
  !v

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> parse_fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
      | None -> parse_fail st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let hi = parse_hex4 st in
          if hi >= 0xD800 && hi <= 0xDBFF then begin
            (* Surrogate pair: the low half must follow as \uXXXX. *)
            expect st '\\';
            expect st 'u';
            let lo = parse_hex4 st in
            if lo < 0xDC00 || lo > 0xDFFF then
              parse_fail st "unpaired surrogate"
            else
              add_utf8 buf
                (0x10000 + (((hi - 0xD800) lsl 10) lor (lo - 0xDC00)))
          end
          else add_utf8 buf hi
        | _ -> parse_fail st "unknown escape"));
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let n = String.length st.src in
  if peek st = Some '-' then advance st;
  while
    st.pos < n
    &&
    match st.src.[st.pos] with
    | '0' .. '9' -> true
    | '.' | 'e' | 'E' | '+' | '-' ->
      is_float := true;
      true
    | _ -> false
  do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> parse_fail st (Printf.sprintf "bad number %S" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      (* Out of int range: fall back to float. *)
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_fail st (Printf.sprintf "bad number %S" text))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> parse_fail st "unexpected end of input"
  | Some 'n' -> parse_literal st "null" Null
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some '"' -> String (parse_string_body st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let items = ref [ parse_value st ] in
      skip_ws st;
      while peek st = Some ',' do
        advance st;
        items := parse_value st :: !items;
        skip_ws st
      done;
      expect st ']';
      List (List.rev !items)
    end
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let field () =
        skip_ws st;
        let k = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        (k, v)
      in
      let fields = ref [ field () ] in
      skip_ws st;
      while peek st = Some ',' do
        advance st;
        fields := field () :: !fields;
        skip_ws st
      done;
      expect st '}';
      Obj (List.rev !fields)
    end
  | Some c -> parse_fail st (Printf.sprintf "unexpected character %c" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  | exception Parse_error { pos; msg } ->
    Error (Printf.sprintf "offset %d: %s" pos msg)

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_list_opt = function List xs -> Some xs | _ -> None
let to_obj_opt = function Obj fields -> Some fields | _ -> None
