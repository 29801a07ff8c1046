(* Incremental frame extraction from a TCP byte stream.

   A UDP transport gets message boundaries for free; a stream transport
   must reconstruct them. The v2 codec's frame header (magic, version,
   declared body length) is already self-delimiting, so "length-prefixed
   framing over the v2 codec" needs no extra envelope: the stream is the
   concatenation of exactly the bytes a datagram transport would have put
   on the wire, and this decoder cuts it back into complete frames.

   The decoder is deliberately paranoid, because a stream desynchronizes
   where a datagram merely drops: after any header-level error (bad magic,
   unsupported version, oversized length) there is no way to find the next
   frame boundary, so the decoder poisons itself and the transport must
   close the connection. Body-level malformations are NOT detected here -
   the boundary is sound as long as the header is - so a frame with a
   valid header and hostile body still comes out as one unit for
   [Codec.decode_frame] to reject without killing the connection. *)

type t = {
  mutable buf : Bytes.t; (* pending undecoded bytes, [0, len) *)
  mutable len : int;
  mutable poisoned : Codec.error option;
  mutable frames_out : int; (* complete frames extracted *)
  mutable partial_feeds : int; (* feeds that ended on an incomplete frame *)
}

let create () =
  { buf = Bytes.create 4096;
    len = 0;
    poisoned = None;
    frames_out = 0;
    partial_feeds = 0 }

let pending t = t.len
let frames t = t.frames_out
let partial_feeds t = t.partial_feeds

let ensure_capacity t extra =
  let need = t.len + extra in
  if need > Bytes.length t.buf then begin
    let cap = ref (2 * Bytes.length t.buf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit t.buf 0 bigger 0 t.len;
    t.buf <- bigger
  end

let feed t chunk ~off ~len =
  match t.poisoned with
  | Some e -> Error e
  | None ->
    if off < 0 || len < 0 || off + len > Bytes.length chunk then
      invalid_arg "Framing.feed: bad slice";
    ensure_capacity t len;
    Bytes.blit chunk off t.buf t.len len;
    t.len <- t.len + len;
    let out = ref [] in
    let rec cut () =
      match Codec.boundary t.buf ~off:0 ~len:t.len with
      | `Need_more ->
        if t.len > 0 then t.partial_feeds <- t.partial_feeds + 1;
        Ok (List.rev !out)
      | `Error e ->
        t.poisoned <- Some e;
        Error e
      | `Frame n ->
        out := Bytes.sub_string t.buf 0 n :: !out;
        t.frames_out <- t.frames_out + 1;
        Bytes.blit t.buf n t.buf 0 (t.len - n);
        t.len <- t.len - n;
        cut ()
    in
    cut ()

let feed_string t s = feed t (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)
