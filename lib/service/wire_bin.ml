(* The binary wire codec: a canonical, length-prefixed encoding of
   {!Wire.t}, negotiated per connection (see DESIGN.md section 17).

   Design constraints, in order:

   - {e Canonical.} Every value has exactly one encoding, so
     [encode (decode p) = p] byte-for-byte and routed traffic can be
     byte-spliced at the cluster tier exactly like JSON lines are
     ({!Rvu_cluster.Frame}). This is why integers are always 8 bytes:
     a varint would be smaller on the wire but the router could no longer
     replace an id value in place without resizing, and two spellings of
     the same int would break the splice-equals-reencode property.
   - {e Same value domain as JSON.} Floats are finite-only on encode
     {e and} decode — the JSON printer refuses non-finite floats, so a
     payload that can only exist in one codec would break the
     binary-equals-json differential oracle.
   - {e Cheap to skip.} Every value's extent is computable from its
     header without building anything, so the server's warm fast path and
     the router scan envelopes allocation-free ({!scan_request}). *)

type mode = Json | Binary

let mode_string = function Json -> "json" | Binary -> "binary"

let mode_of_string = function
  | "json" -> Some Json
  | "binary" -> Some Binary
  | _ -> None

(* Value tags. The Bool polarity rides in the tag so a boolean is one
   byte, and Null/false/true stay below every length-carrying tag. *)
let tag_null = '\x00'
let tag_false = '\x01'
let tag_true = '\x02'
let tag_int = '\x03'
let tag_float = '\x04'
let tag_string = '\x05'
let tag_list = '\x06'
let tag_obj = '\x07'

(* ------------------------------------------------------------------ *)
(* Encoding *)

let add_u32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff))

let add_i64 b n = Buffer.add_int64_be b n

let rec add_value b (v : Wire.t) =
  match v with
  | Wire.Null -> Buffer.add_char b tag_null
  | Wire.Bool false -> Buffer.add_char b tag_false
  | Wire.Bool true -> Buffer.add_char b tag_true
  | Wire.Int n ->
      Buffer.add_char b tag_int;
      add_i64 b (Int64.of_int n)
  | Wire.Float f ->
      if not (Float.is_finite f) then
        invalid_arg "Wire_bin.encode: non-finite float";
      Buffer.add_char b tag_float;
      add_i64 b (Int64.bits_of_float f)
  | Wire.String s ->
      Buffer.add_char b tag_string;
      add_u32 b (String.length s);
      Buffer.add_string b s
  | Wire.List items ->
      Buffer.add_char b tag_list;
      add_u32 b (List.length items);
      List.iter (add_value b) items
  | Wire.Obj fields ->
      Buffer.add_char b tag_obj;
      add_u32 b (List.length fields);
      List.iter
        (fun (k, v) ->
          add_u32 b (String.length k);
          Buffer.add_string b k;
          add_value b v)
        fields

(* Splice primitives for callers that assemble an object encoding by
   hand around already-encoded spans (the response envelope fast path):
   the canonical encoding of an object is exactly
   [add_obj_header; (add_key; value bytes)*]. *)
let add_obj_header b count =
  Buffer.add_char b tag_obj;
  add_u32 b count

let add_key b k =
  add_u32 b (String.length k);
  Buffer.add_string b k

(* Per-domain scratch buffer: the encode path runs on worker domains (a
   response is rendered where its handler ran) and on transport domains,
   so the preallocated buffer is domain-local rather than per-server.
   Steady-state encodes reuse the same backing store — the only per-call
   allocation left is the immutable result string. *)
let scratch : Buffer.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Buffer.create 4096)

let with_scratch f =
  let b = Domain.DLS.get scratch in
  Buffer.clear b;
  f b;
  Buffer.contents b

let encode v = with_scratch (fun b -> add_value b v)

(* ------------------------------------------------------------------ *)
(* Decoding *)

exception Malformed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* No inner helper closure: the skip/scan paths call this per member and
   must stay allocation-free. *)
let get_u32 s pos =
  if pos + 4 > String.length s then fail "offset %d: truncated length" pos;
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let get_i64 s pos =
  if pos + 8 > String.length s then fail "offset %d: truncated 64-bit value" pos;
  String.get_int64_be s pos

(* [decode_value s pos] returns [(value, next_pos)]. *)
let rec decode_value s pos =
  let n = String.length s in
  if pos >= n then fail "offset %d: truncated value" pos;
  let tag = s.[pos] in
  let pos = pos + 1 in
  if tag = tag_null then (Wire.Null, pos)
  else if tag = tag_false then (Wire.Bool false, pos)
  else if tag = tag_true then (Wire.Bool true, pos)
  else if tag = tag_int then (Wire.Int (Int64.to_int (get_i64 s pos)), pos + 8)
  else if tag = tag_float then begin
    let f = Int64.float_of_bits (get_i64 s pos) in
    if not (Float.is_finite f) then
      fail "offset %d: non-finite float" (pos - 1);
    (Wire.Float f, pos + 8)
  end
  else if tag = tag_string then begin
    let len = get_u32 s pos in
    let pos = pos + 4 in
    if pos + len > n then fail "offset %d: truncated string of %d bytes" pos len;
    (Wire.String (String.sub s pos len), pos + len)
  end
  else if tag = tag_list then begin
    let count = get_u32 s pos in
    let pos = ref (pos + 4) in
    let items = ref [] in
    for _ = 1 to count do
      let v, next = decode_value s !pos in
      items := v :: !items;
      pos := next
    done;
    (Wire.List (List.rev !items), !pos)
  end
  else if tag = tag_obj then begin
    let count = get_u32 s pos in
    let pos = ref (pos + 4) in
    let fields = ref [] in
    for _ = 1 to count do
      let klen = get_u32 s !pos in
      let kstart = !pos + 4 in
      if kstart + klen > n then
        fail "offset %d: truncated key of %d bytes" kstart klen;
      let k = String.sub s kstart klen in
      let v, next = decode_value s (kstart + klen) in
      fields := (k, v) :: !fields;
      pos := next
    done;
    (Wire.Obj (List.rev !fields), !pos)
  end
  else fail "offset %d: unknown tag 0x%02x" (pos - 1) (Char.code tag)

let decode s =
  match decode_value s 0 with
  | v, pos ->
      if pos <> String.length s then
        Error
          (Printf.sprintf "offset %d: %d trailing bytes after value" pos
             (String.length s - pos))
      else Ok v
  | exception Malformed msg -> Error msg

(* [decode_span s ~pos ~len] decodes the single value occupying exactly
   [s.[pos .. pos+len-1]] — how the server materialises just the id value
   out of a span {!scan_request} found, without decoding the rest. *)
let decode_span s ~pos ~len =
  match decode_value s pos with
  | v, next ->
      if next <> pos + len then
        Error (Printf.sprintf "offset %d: value does not fill its span" pos)
      else Ok v
  | exception Malformed msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Skipping (no construction) *)

(* [skip_value s pos] is [snd (decode_value s pos)] without building the
   value — the envelope scanners below walk whole payloads with zero
   allocation. *)
let rec skip_value s pos =
  let n = String.length s in
  if pos >= n then fail "offset %d: truncated value" pos;
  let tag = s.[pos] in
  let pos = pos + 1 in
  if tag = tag_null || tag = tag_false || tag = tag_true then pos
  else if tag = tag_int || tag = tag_float then begin
    if pos + 8 > n then fail "offset %d: truncated 64-bit value" pos;
    pos + 8
  end
  else if tag = tag_string then begin
    let len = get_u32 s pos in
    let pos = pos + 4 + len in
    if pos > n then fail "offset %d: truncated string" pos;
    pos
  end
  else if tag = tag_list then begin
    let count = get_u32 s pos in
    skip_values s (pos + 4) count
  end
  else if tag = tag_obj then begin
    let count = get_u32 s pos in
    skip_members s n (pos + 4) count
  end
  else fail "offset %d: unknown tag 0x%02x" (pos - 1) (Char.code tag)

(* Tail-recursive (and parameter-passing, not ref-based: the warm fast
   path scans every request with these and must not allocate). *)
and skip_values s pos count =
  if count = 0 then pos else skip_values s (skip_value s pos) (count - 1)

and skip_members s n pos count =
  if count = 0 then pos
  else begin
    let klen = get_u32 s pos in
    let kstart = pos + 4 + klen in
    if kstart > n then fail "offset %d: truncated key" pos;
    skip_members s n (skip_value s kstart) (count - 1)
  end

(* [iter_members s f] walks the top-level members of an object payload,
   calling [f key_start klen vstart vend] per member (spans are byte
   offsets into [s]; the member extends from [key_start] to [vend]).
   Raises [Malformed] on anything that is not a well-formed object. *)
let rec iter_members_from s n f pos count =
  if count = 0 then begin
    if pos <> n then fail "offset %d: trailing bytes" pos
  end
  else begin
    let klen = get_u32 s pos in
    let kstart = pos + 4 in
    if kstart + klen > n then fail "offset %d: truncated key" pos;
    let vstart = kstart + klen in
    let vend = skip_value s vstart in
    f pos klen vstart vend;
    iter_members_from s n f vend (count - 1)
  end

let iter_members s f =
  let n = String.length s in
  if n = 0 || s.[0] <> tag_obj then fail "offset 0: not an object";
  iter_members_from s n f 5 (get_u32 s 1)

(* Top-level recursion (not an inner closure) so a key comparison on the
   warm fast path allocates nothing. *)
let rec key_eq s kstart klen lit i =
  i >= klen || (s.[kstart + 4 + i] = lit.[i] && key_eq s kstart klen lit (i + 1))

let key_is s kstart klen lit =
  klen = String.length lit && key_eq s kstart klen lit 0

(* ------------------------------------------------------------------ *)
(* Request-envelope scan (the server's warm fast path) *)

type request_scan = {
  id_member : (int * int) option;
      (** byte span of the whole ["id"] member (key length prefix through
          value end); [None] when the request carries no id *)
  id_value : (int * int) option;  (** byte span of the ["id"] value alone *)
  id_tag : char;  (** tag byte of the id value; {!tag_null} when absent *)
  has_timeout : bool;  (** a ["timeout_ms"] member is present *)
  trace_member : (int * int) option;
      (** byte span of the whole ["trace"] member; [None] when absent *)
  trace_value : (int * int) option;
      (** byte span of the ["trace"] value alone *)
}

(* The member walk threads its findings as immediate parameters (-1
   sentinels instead of options) so the only allocation is the one
   result record at the end — this runs per request on the warm path. *)
let rec scan_members s n pos count ~im_start ~im_end ~iv_start ~iv_end ~id_tag
    ~has_timeout ~tm_start ~tm_end ~tv_start ~tv_end =
  if count = 0 then begin
    if pos <> n then fail "offset %d: trailing bytes" pos;
    {
      id_member = (if im_start < 0 then None else Some (im_start, im_end));
      id_value = (if im_start < 0 then None else Some (iv_start, iv_end));
      id_tag;
      has_timeout;
      trace_member = (if tm_start < 0 then None else Some (tm_start, tm_end));
      trace_value = (if tm_start < 0 then None else Some (tv_start, tv_end));
    }
  end
  else begin
    let klen = get_u32 s pos in
    let kstart = pos + 4 in
    if kstart + klen > n then fail "offset %d: truncated key" pos;
    let vstart = kstart + klen in
    let vend = skip_value s vstart in
    if im_start < 0 && key_is s pos klen "id" then
      scan_members s n vend (count - 1) ~im_start:pos ~im_end:vend
        ~iv_start:vstart ~iv_end:vend ~id_tag:s.[vstart] ~has_timeout
        ~tm_start ~tm_end ~tv_start ~tv_end
    else if tm_start < 0 && key_is s pos klen "trace" then
      scan_members s n vend (count - 1) ~im_start ~im_end ~iv_start ~iv_end
        ~id_tag ~has_timeout ~tm_start:pos ~tm_end:vend ~tv_start:vstart
        ~tv_end:vend
    else
      scan_members s n vend (count - 1) ~im_start ~im_end ~iv_start ~iv_end
        ~id_tag
        ~has_timeout:(has_timeout || key_is s pos klen "timeout_ms")
        ~tm_start ~tm_end ~tv_start ~tv_end
  end

let scan_request s =
  match
    if String.length s = 0 || s.[0] <> tag_obj then
      fail "offset 0: not an object";
    scan_members s (String.length s) 5 (get_u32 s 1) ~im_start:(-1)
      ~im_end:(-1) ~iv_start:(-1) ~iv_end:(-1) ~id_tag:tag_null
      ~has_timeout:false ~tm_start:(-1) ~tm_end:(-1) ~tv_start:(-1)
      ~tv_end:(-1)
  with
  | scan -> Some scan
  | exception Malformed _ -> None

(* ------------------------------------------------------------------ *)
(* Framing *)

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (n + 4) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let output_frame oc payload =
  let n = String.length payload in
  output_char oc (Char.chr ((n lsr 24) land 0xff));
  output_char oc (Char.chr ((n lsr 16) land 0xff));
  output_char oc (Char.chr ((n lsr 8) land 0xff));
  output_char oc (Char.chr (n land 0xff));
  output_string oc payload

type read_result =
  | Frame of string
  | Eof
  | Oversized of int
  | Truncated

let input_frame ?max_bytes ic =
  match input_char ic with
  | exception End_of_file -> Eof
  | c0 -> (
      match
        let c1 = input_char ic in
        let c2 = input_char ic in
        let c3 = input_char ic in
        (Char.code c0 lsl 24) lor (Char.code c1 lsl 16)
        lor (Char.code c2 lsl 8) lor Char.code c3
      with
      | exception End_of_file -> Truncated
      | len -> (
          match max_bytes with
          | Some limit when len > limit ->
              (* The remaining bytes are not consumed: an oversized length
                 is either hostile or a framing desync (e.g. a JSON line on
                 a binary connection), and in both cases resynchronising is
                 guesswork. The caller answers and closes. *)
              Oversized len
          | _ -> (
              let b = Bytes.create len in
              match really_input ic b 0 len with
              | () -> Frame (Bytes.unsafe_to_string b)
              | exception End_of_file -> Truncated)))
