(** The connection loop shared by {!Server} and the cluster router: one
    record reader, the [hello] handshake, the oversized-record reply and
    one response writer.

    {b Reading.} A {!reader} keeps its own buffer, filled with
    [Stdlib.input], and cuts it into NDJSON lines or length-prefixed
    {!Wire_bin} frames. Owning the buffer is what lets the writer know
    when the records already received are used up. A line longer than
    the record limit is never held whole: past the limit the reader
    discards through the next ['\n'], counting bytes, and reports
    [Oversized] with the full length.

    {b Writing.} Accepted sockets run with [TCP_NODELAY], so a flushed
    response leaves at once instead of waiting for the client's delayed
    ACK (Nagle held every light-load response until the client's next
    request). To keep bursts of responses in few segments, the writer
    coalesces: while the reader works through records already in its
    buffer, the first response written after each read is flushed at
    once and later ones are held, then flushed together just before the
    reader's next [input]. Responses written on any other domain
    (scheduler workers, router shard readers) flush at once. So no
    response ever waits for more input. *)

(** {1 Records} *)

type record =
  | Line of string  (** one NDJSON line, without its ['\n'] *)
  | Frame of string  (** one frame payload, without its length prefix *)
  | Eof  (** clean end of input at a record boundary *)
  | Oversized of int
      (** a record over the limit, with its length in bytes. For a line,
          the bytes through its ['\n'] are consumed and reading can go
          on. For a frame, this is the announced length and the payload
          is {e not} consumed: resynchronising after a hostile or
          desynced length prefix is guesswork, so the caller closes. *)
  | Truncated  (** end of input inside a frame's prefix or payload *)

type reader

val reader : max_bytes:int -> in_channel -> reader
(** A reader over [ic] for records of at most [max_bytes] bytes. *)

val read : reader -> Wire_bin.mode -> record
(** The next line ([Json]: [Line], [Oversized] or [Eof]; a trailing
    unterminated line is returned as a [Line], as [input_line] does) or
    the next frame ([Binary]: [Frame], [Oversized], [Truncated] or
    [Eof]). *)

val output : out_channel -> Wire_bin.mode -> string -> unit
(** Write one record (no flush): the line and its ['\n'], or the
    frame. *)

(** {1 Connections} *)

type handler = {
  max_bytes : int;  (** record limit *)
  line : string -> respond:(string -> unit) -> unit;
  payload : string -> respond:(string -> unit) -> unit;
      (** the request handlers; [respond] is domain-safe, never raises,
          and may be called from any domain *)
  answered : [ `Hello of float | `Oversized ] -> unit;
      (** called when the transport answers a record itself — a hello
          (with its wall seconds) or an oversized record — for the
          caller's counters and latency histograms; it runs before the
          reply is written, so a client holding the reply sees them *)
  wait_idle : unit -> unit;
      (** block until every request handed to [line]/[payload] has been
          answered; run after end of input, before the final flush *)
}

val serve : ?wire:Wire_bin.mode -> handler -> in_channel -> out_channel -> unit
(** Serve one connection until end of input, then wait for the
    handler's outstanding requests and flush.

    [wire] (default [Json]) is the starting codec. On a [Json] start a
    [hello] record as the first non-blank line is answered here (always
    as a JSON line) and switches both directions to its ["wire"]. A
    [Binary] start expects frames from byte zero but sniffs the first
    byte: ['{'] — which no length prefix under a sane limit starts with
    — falls the connection back to lines, so a hello-negotiating client
    still works. An oversized line is answered and the connection keeps
    serving; an oversized frame is answered and the connection closes. *)

val call : (respond:(string -> unit) -> unit) -> string
(** The in-process transport: run a handler and block until it calls
    [respond] — the [handle_sync] of {!Server} and the router. *)

val render : Wire_bin.mode -> Wire.t -> string
(** A value in a connection's codec: {!Wire.print} or {!Wire_bin.encode}. *)

val parse : Wire_bin.mode -> string -> (Wire.t, string) result
(** The inverse of {!render}: {!Wire.parse} (its error rendered as a
    string) or {!Wire_bin.decode}. *)

val upgrade : in_channel -> out_channel -> bool
(** The client side of the handshake: send a binary-wire [hello] (with
    the reserved id 0) as the first record and read its JSON reply —
    [true] when the peer switched to frames. *)

val reject_oversized :
  wire:Wire_bin.mode -> limit:int -> int -> respond:(string -> unit) -> unit
(** [reject_oversized ~wire ~limit bytes ~respond] logs the rejection and
    answers the structured [invalid_request] error for a record of
    [bytes] over [limit], in [wire]'s codec:
    ["request line|frame of <bytes> bytes exceeds the <limit> byte limit"]. *)

(** {1 Sockets} *)

val resolve_host : string -> Unix.inet_addr
(** Resolve a host name or dotted quad (first address wins), raising
    [Invalid_argument] when it does not resolve. *)

val listen : name:string -> host:string -> port:int -> Unix.file_descr
(** Ignore [SIGPIPE] (a vanished client must surface as a write error,
    not kill the process), bind and listen on [host:port], and print
    ["rvu <name>: listening on <host>:<port>"] to stderr — the line
    scripts wait for before connecting. *)

val serve_socket :
  name:string -> (in_channel -> out_channel -> unit) -> Unix.file_descr -> unit
(** Serve one accepted socket with [TCP_NODELAY] set: run the session on
    its channels, log (and print to stderr) an exception it raises
    instead of propagating it, then close the socket. *)
