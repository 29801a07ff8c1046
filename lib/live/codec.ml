(* Versioned binary codec for the live runtime's datagrams.

   Every frame starts with a fixed header - magic, a codec version byte and
   the declared body length - so a truncated, oversized or foreign datagram
   is rejected before any field is touched, and a future codec revision can
   coexist on the wire with this one. Integers are big-endian; lengths and
   counts are unsigned 32-bit; all multi-field structures are
   length-delimited only through the frame header (the grammar is
   self-terminating).

   The message grammar mirrors [Wire.t] constructor by constructor; the
   golden files under test/golden pin the exact bytes so an accidental
   grammar change fails the build rather than silently splitting the
   cluster into incompatible halves. *)

open Gmp_base
open Gmp_causality
open Gmp_core

(* Application payloads on the real wire are opaque bytes: examples in the
   sim define their own [Wire.app] constructors, but across address spaces
   only a serialized form travels. *)
type Wire.app += Blob of string

type netem_spec = {
  peer : Pid.t option; (* None: the node's default (all-links) model *)
  n_loss : float;
  n_latency : float;
  n_jitter : float;
  n_dup : float;
  n_reorder : float;
}

type ctrl =
  | Shutdown
  | Blackhole of Pid.t
  | Unblackhole of Pid.t
  | Set_netem of netem_spec
  | Get_metrics

type frame =
  | Data of {
      src : Pid.t;
      chan_seq : int; (* per-(src,dst) channel sequence number (ARQ) *)
      vc : Vector_clock.t;
      msg : Wire.t;
    }
  | Ack of { src : Pid.t; ack_next : int }
  | Ctrl of { token : int; cmd : ctrl }
      (* Every control frame carries an orchestrator-chosen token and is
         answered with [Ctrl_ack] carrying the same token AFTER the command
         has been applied: the control plane survives the very faults it
         injects because the sender retries until acked. Commands are
         idempotent, so replays caused by a lost ack are harmless. *)
  | Ctrl_ack of { token : int }
  | Metrics of { token : int; payload : string }
      (* Reply to [Ctrl Get_metrics]: the queried node's registry snapshot
         as compact JSON text. Doubles as the command's ack - the sender
         retries Get_metrics until a Metrics frame with its token lands. *)

type error =
  | Truncated of string
  | Oversized of { declared : int; max : int }
  | Bad_magic
  | Unsupported_version of int
  | Malformed of string

let pp_error ppf = function
  | Truncated what -> Fmt.pf ppf "truncated frame (%s)" what
  | Oversized { declared; max } ->
    Fmt.pf ppf "oversized frame (declares %d bytes, max %d)" declared max
  | Bad_magic -> Fmt.string ppf "bad magic"
  | Unsupported_version v -> Fmt.pf ppf "unsupported codec version %d" v
  | Malformed what -> Fmt.pf ppf "malformed frame (%s)" what

let version = 2
(* v2: control frames gained ack tokens and the Set_netem command; the
   frame goldens were regenerated for the bump (body-only message
   encodings are unchanged from v1). *)
let magic0 = 'G'
let magic1 = 'M'
let header_len = 7 (* magic(2) + version(1) + body length(4) *)

let max_frame = 65536
(* An IPv4 datagram tops out near 64 KiB; anything larger never left a
   well-behaved sender. *)

(* ---- encoding ---- *)

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let add_u32 buf v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Codec: u32 out of range";
  add_u8 buf (v lsr 24);
  add_u8 buf (v lsr 16);
  add_u8 buf (v lsr 8);
  add_u8 buf v

let add_string buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let add_pid buf p =
  add_u32 buf (Pid.id p);
  add_u32 buf (Pid.incarnation p)

let add_f64 buf v =
  let bits = Int64.bits_of_float v in
  for i = 7 downto 0 do
    add_u8 buf (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
  done

let add_list buf add xs =
  add_u32 buf (List.length xs);
  List.iter (add buf) xs

let add_option buf add = function
  | None -> add_u8 buf 0
  | Some x ->
    add_u8 buf 1;
    add buf x

let add_vc buf vc = add_list buf (fun buf (p, n) -> add_pid buf p; add_u32 buf n)
    (Vector_clock.to_list vc)

let add_op buf = function
  | Types.Remove p ->
    add_u8 buf 0;
    add_pid buf p
  | Types.Add p ->
    add_u8 buf 1;
    add_pid buf p

let add_seq buf seq = add_list buf add_op seq

let add_expectation buf = function
  | Types.Awaiting_proposal p ->
    add_u8 buf 0;
    add_pid buf p
  | Types.Expected { canonical; coord; ver } ->
    add_u8 buf 1;
    add_seq buf canonical;
    add_pid buf coord;
    add_u32 buf ver

let add_reply buf (r : Wire.interrogate_reply) =
  add_u32 buf r.reply_ver;
  add_seq buf r.reply_seq;
  add_list buf add_expectation r.reply_next

let add_proposal buf (p : Wire.proposal) =
  add_u32 buf p.target_ver;
  add_seq buf p.canonical_seq;
  add_option buf add_op p.invis;
  add_list buf add_pid p.prop_faulty

let add_msg buf (msg : Wire.t) =
  match msg with
  | Wire.Heartbeat -> add_u8 buf 0
  | Wire.Faulty_report p ->
    add_u8 buf 1;
    add_pid buf p
  | Wire.Join_request -> add_u8 buf 2
  | Wire.Join_forward p ->
    add_u8 buf 3;
    add_pid buf p
  | Wire.Invite { op; invite_ver } ->
    add_u8 buf 4;
    add_op buf op;
    add_u32 buf invite_ver
  | Wire.Invite_ok { ok_ver } ->
    add_u8 buf 5;
    add_u32 buf ok_ver
  | Wire.Commit { op; commit_ver; contingent; faulty; recovered } ->
    add_u8 buf 6;
    add_op buf op;
    add_u32 buf commit_ver;
    add_option buf add_op contingent;
    add_list buf add_pid faulty;
    add_list buf add_pid recovered
  | Wire.Welcome { w_members; w_ver; w_seq } ->
    add_u8 buf 7;
    add_list buf add_pid w_members;
    add_u32 buf w_ver;
    add_seq buf w_seq
  | Wire.Interrogate -> add_u8 buf 8
  | Wire.Interrogate_ok reply ->
    add_u8 buf 9;
    add_reply buf reply
  | Wire.Propose prop ->
    add_u8 buf 10;
    add_proposal buf prop
  | Wire.Propose_ok { pok_ver } ->
    add_u8 buf 11;
    add_u32 buf pok_ver
  | Wire.Reconf_commit prop ->
    add_u8 buf 12;
    add_proposal buf prop
  | Wire.App { app_ver; payload } -> (
    add_u8 buf 13;
    add_u32 buf app_ver;
    match payload with
    | Blob s -> add_string buf s
    | _ ->
      invalid_arg
        "Codec: only Codec.Blob application payloads exist on the real wire")

let add_ctrl buf = function
  | Shutdown -> add_u8 buf 0
  | Blackhole p ->
    add_u8 buf 1;
    add_pid buf p
  | Unblackhole p ->
    add_u8 buf 2;
    add_pid buf p
  | Set_netem { peer; n_loss; n_latency; n_jitter; n_dup; n_reorder } ->
    add_u8 buf 3;
    add_option buf add_pid peer;
    add_f64 buf n_loss;
    add_f64 buf n_latency;
    add_f64 buf n_jitter;
    add_f64 buf n_dup;
    add_f64 buf n_reorder
  | Get_metrics -> add_u8 buf 4

let add_body buf = function
  | Data { src; chan_seq; vc; msg } ->
    add_u8 buf 0;
    add_pid buf src;
    add_u32 buf chan_seq;
    add_vc buf vc;
    add_msg buf msg
  | Ack { src; ack_next } ->
    add_u8 buf 1;
    add_pid buf src;
    add_u32 buf ack_next
  | Ctrl { token; cmd } ->
    add_u8 buf 2;
    add_u32 buf token;
    add_ctrl buf cmd
  | Ctrl_ack { token } ->
    add_u8 buf 3;
    add_u32 buf token
  | Metrics { token; payload } ->
    add_u8 buf 4;
    add_u32 buf token;
    add_string buf payload

let encode_msg msg =
  let buf = Buffer.create 64 in
  add_msg buf msg;
  Buffer.contents buf

(* Header and body go into one buffer, the body length patched in after:
   the only copy is the one out of the buffer. *)
let encode_frame frame =
  let buf = Buffer.create 128 in
  Buffer.add_char buf magic0;
  Buffer.add_char buf magic1;
  add_u8 buf version;
  add_u32 buf 0;
  add_body buf frame;
  let n = Buffer.length buf - header_len in
  if n > max_frame then invalid_arg "Codec.encode_frame: frame too large";
  let b = Buffer.to_bytes buf in
  Bytes.set_int32_be b (header_len - 4) (Int32.of_int n);
  Bytes.unsafe_to_string b

(* A Data frame's [chan_seq] sits at a fixed offset, after the header, the
   kind byte and the src pid: a sender encodes the frame once and stamps
   each transmission with its sequence number. *)
let chan_seq_offset = header_len + 1 + 8

let with_chan_seq frame chan_seq =
  if String.length frame < chan_seq_offset + 4 || frame.[header_len] <> '\000'
  then invalid_arg "Codec.with_chan_seq: not a Data frame";
  if chan_seq < 0 || chan_seq > 0xffff_ffff then
    invalid_arg "Codec: u32 out of range";
  let b = Bytes.of_string frame in
  Bytes.set_int32_be b chan_seq_offset (Int32.of_int chan_seq);
  Bytes.unsafe_to_string b

(* ---- decoding ---- *)

exception Fail of error

type cursor = { src : string; limit : int; mutable pos : int }

let need c n what =
  if c.pos + n > c.limit then raise (Fail (Truncated what))

let get_u8 c what =
  need c 1 what;
  let v = Char.code c.src.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c what =
  need c 4 what;
  let b i = Char.code c.src.[c.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  v

let get_string c what =
  let n = get_u32 c what in
  need c n what;
  let s = String.sub c.src c.pos n in
  c.pos <- c.pos + n;
  s

let get_pid c what =
  let id = get_u32 c what in
  let incarnation = get_u32 c what in
  match Pid.make ~incarnation id with
  | p -> p
  | exception Invalid_argument _ -> raise (Fail (Malformed what))

let get_f64 c what =
  need c 8 what;
  let bits = ref 0L in
  for i = 0 to 7 do
    bits :=
      Int64.logor (Int64.shift_left !bits 8)
        (Int64.of_int (Char.code c.src.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  let v = Int64.float_of_bits !bits in
  if Float.is_nan v || not (Float.is_finite v) then
    raise (Fail (Malformed (what ^ " not finite")));
  v

let get_prob c what =
  let v = get_f64 c what in
  if v < 0.0 || v > 1.0 then raise (Fail (Malformed (what ^ " out of [0,1]")));
  v

let get_nonneg c what =
  let v = get_f64 c what in
  if v < 0.0 then raise (Fail (Malformed (what ^ " negative")));
  v

let get_list c what get =
  let n = get_u32 c what in
  (* Each element occupies at least one byte: a count beyond the remaining
     bytes is a lie, not a long list (guards against allocation bombs). *)
  if n > c.limit - c.pos then raise (Fail (Malformed (what ^ " count")));
  List.init n (fun _ -> get c)

let get_option c what get =
  match get_u8 c what with
  | 0 -> None
  | 1 -> Some (get c)
  | _ -> raise (Fail (Malformed (what ^ " option tag")))

let get_vc c =
  let entries =
    get_list c "vc" (fun c ->
        let p = get_pid c "vc pid" in
        let n = get_u32 c "vc count" in
        (p, n))
  in
  Vector_clock.of_list entries

let get_op c =
  match get_u8 c "op tag" with
  | 0 -> Types.Remove (get_pid c "op pid")
  | 1 -> Types.Add (get_pid c "op pid")
  | t -> raise (Fail (Malformed (Printf.sprintf "op tag %d" t)))

let get_seq c = get_list c "seq" get_op

let get_expectation c =
  match get_u8 c "expectation tag" with
  | 0 -> Types.Awaiting_proposal (get_pid c "expectation pid")
  | 1 ->
    let canonical = get_seq c in
    let coord = get_pid c "expectation coord" in
    let ver = get_u32 c "expectation ver" in
    Types.Expected { canonical; coord; ver }
  | t -> raise (Fail (Malformed (Printf.sprintf "expectation tag %d" t)))

let get_reply c : Wire.interrogate_reply =
  let reply_ver = get_u32 c "reply ver" in
  let reply_seq = get_seq c in
  let reply_next = get_list c "reply next" get_expectation in
  { reply_ver; reply_seq; reply_next }

let get_proposal c : Wire.proposal =
  let target_ver = get_u32 c "proposal ver" in
  let canonical_seq = get_seq c in
  let invis = get_option c "proposal invis" get_op in
  let prop_faulty = get_list c "proposal faulty" (fun c -> get_pid c "pid") in
  { target_ver; canonical_seq; invis; prop_faulty }

let get_msg c : Wire.t =
  match get_u8 c "msg tag" with
  | 0 -> Wire.Heartbeat
  | 1 -> Wire.Faulty_report (get_pid c "report pid")
  | 2 -> Wire.Join_request
  | 3 -> Wire.Join_forward (get_pid c "join pid")
  | 4 ->
    let op = get_op c in
    let invite_ver = get_u32 c "invite ver" in
    Wire.Invite { op; invite_ver }
  | 5 -> Wire.Invite_ok { ok_ver = get_u32 c "ok ver" }
  | 6 ->
    let op = get_op c in
    let commit_ver = get_u32 c "commit ver" in
    let contingent = get_option c "commit contingent" get_op in
    let faulty = get_list c "commit faulty" (fun c -> get_pid c "pid") in
    let recovered = get_list c "commit recovered" (fun c -> get_pid c "pid") in
    Wire.Commit { op; commit_ver; contingent; faulty; recovered }
  | 7 ->
    let w_members = get_list c "welcome members" (fun c -> get_pid c "pid") in
    let w_ver = get_u32 c "welcome ver" in
    let w_seq = get_seq c in
    Wire.Welcome { w_members; w_ver; w_seq }
  | 8 -> Wire.Interrogate
  | 9 -> Wire.Interrogate_ok (get_reply c)
  | 10 -> Wire.Propose (get_proposal c)
  | 11 -> Wire.Propose_ok { pok_ver = get_u32 c "pok ver" }
  | 12 -> Wire.Reconf_commit (get_proposal c)
  | 13 ->
    let app_ver = get_u32 c "app ver" in
    let payload = Blob (get_string c "app payload") in
    Wire.App { app_ver; payload }
  | t -> raise (Fail (Malformed (Printf.sprintf "msg tag %d" t)))

let get_ctrl c =
  match get_u8 c "ctrl tag" with
  | 0 -> Shutdown
  | 1 -> Blackhole (get_pid c "ctrl pid")
  | 2 -> Unblackhole (get_pid c "ctrl pid")
  | 3 ->
    let peer = get_option c "netem peer" (fun c -> get_pid c "netem peer") in
    let n_loss = get_prob c "netem loss" in
    if n_loss >= 1.0 then raise (Fail (Malformed "netem loss out of [0,1)"));
    let n_latency = get_nonneg c "netem latency" in
    let n_jitter = get_nonneg c "netem jitter" in
    let n_dup = get_prob c "netem dup" in
    let n_reorder = get_prob c "netem reorder" in
    Set_netem { peer; n_loss; n_latency; n_jitter; n_dup; n_reorder }
  | 4 -> Get_metrics
  | t -> raise (Fail (Malformed (Printf.sprintf "ctrl tag %d" t)))

let get_body c =
  match get_u8 c "frame kind" with
  | 0 ->
    let src = get_pid c "data src" in
    let chan_seq = get_u32 c "data seq" in
    let vc = get_vc c in
    let msg = get_msg c in
    Data { src; chan_seq; vc; msg }
  | 1 ->
    let src = get_pid c "ack src" in
    let ack_next = get_u32 c "ack next" in
    Ack { src; ack_next }
  | 2 ->
    let token = get_u32 c "ctrl token" in
    let cmd = get_ctrl c in
    Ctrl { token; cmd }
  | 3 -> Ctrl_ack { token = get_u32 c "ctrl-ack token" }
  | 4 ->
    let token = get_u32 c "metrics token" in
    let payload = get_string c "metrics payload" in
    Metrics { token; payload }
  | t -> raise (Fail (Malformed (Printf.sprintf "frame kind %d" t)))

let finish c v =
  if c.pos <> c.limit then
    Error (Malformed (Printf.sprintf "%d trailing bytes" (c.limit - c.pos)))
  else Ok v

let decode_msg s =
  let c = { src = s; limit = String.length s; pos = 0 } in
  match get_msg c with v -> finish c v | exception Fail e -> Error e

(* The header rule every reader applies, datagram and stream alike. *)
let boundary b ~off ~len =
  if len < header_len then `Need_more
  else if Bytes.get b off <> magic0 || Bytes.get b (off + 1) <> magic1 then
    `Error Bad_magic
  else
    let v = Char.code (Bytes.get b (off + 2)) in
    if v <> version then `Error (Unsupported_version v)
    else
      let byte i = Char.code (Bytes.get b (off + 3 + i)) in
      let declared =
        (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
      in
      if declared > max_frame then
        `Error (Oversized { declared; max = max_frame })
      else if len < header_len + declared then `Need_more
      else `Frame (header_len + declared)

(* One frame of [len] bytes at [off], whose header [boundary] accepted. *)
let decode_body s ~off ~len =
  let c = { src = s; limit = off + len; pos = off + header_len } in
  match get_body c with v -> finish c v | exception Fail e -> Error e

let truncated ~len =
  Truncated (if len < header_len then "header" else "body")

let decode_frame s =
  let n = String.length s in
  match boundary (Bytes.unsafe_of_string s) ~off:0 ~len:n with
  | `Error e -> Error e
  | `Need_more -> Error (truncated ~len:n)
  | `Frame k when k < n -> Error (Malformed "datagram longer than declared body")
  | `Frame k -> decode_body s ~off:0 ~len:k

let decode_frames s f =
  let n = String.length s in
  let rec go off =
    if off = n && off > 0 then Ok ()
    else
      let len = n - off in
      match boundary (Bytes.unsafe_of_string s) ~off ~len with
      | `Error e -> Error e
      | `Need_more -> Error (truncated ~len)
      | `Frame k -> (
        match decode_body s ~off ~len:k with
        | Ok frame ->
          f frame;
          go (off + k)
        | Error e -> Error e)
  in
  go 0
