(** The binary wire codec: a canonical, length-prefixed binary encoding
    of {!Wire.t} values, negotiated per connection by a [hello] record
    (JSON stays the default and the compatibility oracle — see DESIGN.md
    section 17 for the byte-level layout and the handshake).

    Properties the service stack relies on:

    - {b Canonical}: every value has exactly one encoding, so
      [decode ∘ encode = id] {e and} [encode ∘ decode = id] (byte-wise).
      The cluster router splices routed binary responses in place and the
      result is still byte-identical to a direct server's encoding.
    - {b Same value domain as JSON}: non-finite floats are rejected on
      encode (like {!Wire.print}) and on decode, so any payload
      expressible in one codec is expressible in the other.
    - {b Skippable}: a value's extent follows from its header, so
      envelope scans ({!scan_request}) allocate nothing. *)

type mode = Json | Binary
(** The per-connection wire mode. Every connection starts in [Json]; a
    [hello] record with ["wire":"binary"] as the {e first} record flips
    both directions to length-prefixed binary frames (the hello response
    itself is still JSON). *)

val mode_string : mode -> string
(** ["json"] / ["binary"] — the wire spelling in [hello] records and the
    CLI's [--wire] values. *)

val mode_of_string : string -> mode option

val add_value : Buffer.t -> Wire.t -> unit
(** Append the encoding of a value. Raises [Invalid_argument] on
    non-finite floats (mirroring {!Wire.print}). *)

val encode : Wire.t -> string
(** [add_value] into a per-domain scratch buffer (reused across calls on
    the same domain; only the result string is allocated per call). *)

val add_obj_header : Buffer.t -> int -> unit
(** The object tag and member count — with {!add_key}, lets a caller
    assemble an object encoding around already-encoded value spans (the
    canonical object encoding is exactly
    [add_obj_header; (add_key; value)*]). *)

val add_key : Buffer.t -> string -> unit
(** One member key (length prefix + bytes); the member's value bytes
    follow. *)

val with_scratch : (Buffer.t -> unit) -> string
(** Run [f] on the (cleared) per-domain scratch buffer and return its
    contents — for callers that splice encodings by hand (the server's
    response fast path, the router's probe encoder). *)

val decode : string -> (Wire.t, string) result
(** Decode one value occupying the whole string. [Error] messages carry
    the byte offset of the defect (truncation, unknown tag, non-finite
    float, trailing bytes). *)

val iter_members : string -> (int -> int -> int -> int -> unit) -> unit
(** [iter_members s f] walks the top-level members of an object payload,
    calling [f key_pos key_len value_start value_end] per member (byte
    offsets into [s]; the key bytes start at [key_pos + 4], after the
    length prefix). Allocation-free. Raises an internal exception on
    anything that is not one well-formed object — callers wrap it and
    degrade (see {!scan_request} for the total version). *)

val key_is : string -> int -> int -> string -> bool
(** [key_is s key_pos key_len lit] — does the member key at
    [key_pos]/[key_len] (as reported by {!iter_members}) spell [lit]?
    Allocation-free. *)

val decode_span : string -> pos:int -> len:int -> (Wire.t, string) result
(** Decode the one value occupying exactly [s.[pos .. pos+len-1]] — used
    with the spans {!scan_request} returns to materialise just the id
    value of a request payload. *)

type request_scan = {
  id_member : (int * int) option;
      (** span of the first ["id"] member, key-length prefix through value
          end — the bytes removed to form the frame-cache key *)
  id_value : (int * int) option;  (** span of the ["id"] value alone *)
  id_tag : char;  (** first byte of the id value; [0x00] when absent *)
  has_timeout : bool;
  trace_member : (int * int) option;
      (** span of the first ["trace"] member (the router's per-request
          trace context) — also excised from the frame-cache key, since
          it differs on every request *)
  trace_value : (int * int) option;  (** span of the ["trace"] value *)
}

val scan_request : string -> request_scan option
(** Allocation-free envelope scan of an encoded request payload: [None]
    unless the payload is one well-formed top-level object. The warm
    fast path uses this to key the frame cache on the payload with the id
    member excised, without decoding anything. *)

(** {1 Framing}

    A frame is a 4-byte big-endian unsigned payload length followed by
    the payload bytes. No terminator, no padding. *)

val frame : string -> string
(** The framed bytes of a payload (length prefix + payload) — for tests
    and clients that batch writes. *)

val output_frame : out_channel -> string -> unit
(** Write one frame (no flush). *)

type read_result =
  | Frame of string  (** one whole payload *)
  | Eof  (** clean end of stream at a frame boundary *)
  | Oversized of int
      (** the length prefix exceeds [max_bytes]; the payload bytes are
          {e not} consumed (resynchronising after a hostile or desynced
          length is guesswork — answer and close) *)
  | Truncated  (** end of stream inside a prefix or payload *)

val input_frame : ?max_bytes:int -> in_channel -> read_result
(** Read one frame, blocking until the payload is complete — for
    clients; the serving side reads through {!Transport}. *)
