(* See transport.mli for the reader, the flush rule and why sockets run
   with TCP_NODELAY. *)

type record =
  | Line of string
  | Frame of string
  | Eof
  | Oversized of int
  | Truncated

(* ------------------------------------------------------------------ *)
(* The record reader *)

type reader = {
  ic : in_channel;
  max_bytes : int;
  before_input : unit -> unit;
      (* runs before every [input], whenever the buffered records are
         used up and the next read may block: the writer's flush point *)
  mutable buf : Bytes.t;
  mutable pos : int;  (* first unconsumed byte *)
  mutable len : int;  (* end of the buffered bytes *)
  mutable scan : int;
      (* where the newline search resumes: [pos..scan) holds none, so a
         long line arriving in pieces is scanned once, not once per piece *)
}

let make_reader ~before_input ~max_bytes ic =
  let buf = Bytes.create 65536 in
  let max_bytes = max 0 max_bytes in
  { ic; max_bytes; before_input; buf; pos = 0; len = 0; scan = 0 }

let reader = make_reader ~before_input:ignore

(* Append the next [input] to the unconsumed bytes, first moving them to
   the front and doubling the buffer when they fill it. [false] at end
   of input. *)
let fill r =
  if r.pos > 0 then begin
    Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
    r.len <- r.len - r.pos;
    r.scan <- r.scan - r.pos;
    r.pos <- 0
  end;
  if r.len = Bytes.length r.buf then begin
    let b = Bytes.create (2 * r.len) in
    Bytes.blit r.buf 0 b 0 r.len;
    r.buf <- b
  end;
  r.before_input ();
  let n = input r.ic r.buf r.len (Bytes.length r.buf - r.len) in
  r.len <- r.len + n;
  n > 0

let rec newline buf i stop =
  if i >= stop then -1
  else if Bytes.unsafe_get buf i = '\n' then i
  else newline buf (i + 1) stop

let consume r n =
  r.pos <- r.pos + n;
  r.scan <- r.pos

let rec read_line r =
  let i = newline r.buf r.scan r.len in
  if i >= 0 then begin
    let n = i - r.pos in
    let record =
      if n > r.max_bytes then Oversized n
      else Line (Bytes.sub_string r.buf r.pos n)
    in
    consume r (n + 1);
    record
  end
  else if r.len - r.pos > r.max_bytes then discard_line r 0
  else begin
    r.scan <- r.len;
    if fill r then read_line r
    else if r.len > r.pos then begin
      let n = r.len - r.pos in
      let line = Bytes.sub_string r.buf r.pos n in
      consume r n;
      Line line
    end
    else Eof
  end

(* An unterminated line past the limit: drop what is buffered and keep
   reading, counting, through the next newline, so a hostile line costs
   a buffer of about twice the limit, not its own length. *)
and discard_line r counted =
  let i = newline r.buf r.scan r.len in
  if i >= 0 then begin
    let n = i - r.pos in
    consume r (n + 1);
    Oversized (counted + n)
  end
  else begin
    let counted = counted + (r.len - r.pos) in
    consume r (r.len - r.pos);
    if fill r then discard_line r counted else Oversized counted
  end

let rec read_frame r =
  let avail = r.len - r.pos in
  let need =
    if avail < 4 then 4
    else
      let byte k = Char.code (Bytes.unsafe_get r.buf (r.pos + k)) in
      4 + ((byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3)
  in
  if need - 4 > r.max_bytes then Oversized (need - 4)
  else if avail >= need then begin
    let payload = Bytes.sub_string r.buf (r.pos + 4) (need - 4) in
    consume r need;
    Frame payload
  end
  else if fill r then read_frame r
  else if r.len = r.pos then Eof
  else Truncated

let read r = function
  | Wire_bin.Json -> read_line r
  | Wire_bin.Binary -> read_frame r

(* The first buffered byte, reading if none is; [None] at end of input. *)
let peek r =
  if r.len > r.pos || fill r then Some (Bytes.get r.buf r.pos) else None

(* ------------------------------------------------------------------ *)
(* The response writer *)

type writer = {
  oc : out_channel;
  lock : Mutex.t;
  reader_domain : Domain.id;
  mutable mode : Wire_bin.mode;
      (* set only on the reader's domain before any request on the
         connection is outstanding: by the '{' sniff or a hello *)
  mutable read_flushed : bool;
      (* a reader-domain response was flushed since the last read; later
         ones wait in [oc] for [flush_held] *)
}

let output oc mode payload =
  match mode with
  | Wire_bin.Json ->
      output_string oc payload;
      output_char oc '\n'
  | Wire_bin.Binary -> Wire_bin.output_frame oc payload

let respond w payload =
  Mutex.lock w.lock;
  (try
     output w.oc w.mode payload;
     let on_reader = Domain.self () = w.reader_domain in
     if not (on_reader && w.read_flushed) then begin
       flush w.oc;
       if on_reader then w.read_flushed <- true
     end
   with _ -> () (* client went away; keep serving the rest *));
  Mutex.unlock w.lock

(* Run before every read: nothing written may wait for more input. *)
let flush_held w () =
  Mutex.lock w.lock;
  (try flush w.oc with _ -> ());
  w.read_flushed <- false;
  Mutex.unlock w.lock

(* ------------------------------------------------------------------ *)
(* Connections *)

type handler = {
  max_bytes : int;
  line : string -> respond:(string -> unit) -> unit;
  payload : string -> respond:(string -> unit) -> unit;
  answered : [ `Hello of float | `Oversized ] -> unit;
  wait_idle : unit -> unit;
}

let render wire w =
  match wire with
  | Wire_bin.Json -> Wire.print w
  | Wire_bin.Binary -> Wire_bin.encode w

let parse wire s =
  match wire with
  | Wire_bin.Json -> Result.map_error Wire.error_to_string (Wire.parse s)
  | Wire_bin.Binary -> Wire_bin.decode s

let reject_oversized ~wire ~limit bytes ~respond =
  let ctx = Rvu_obs.Ctx.generate () in
  Rvu_obs.Ctx.with_ctx ctx (fun () ->
      Rvu_obs.Log.warn
        ~fields:[ ("bytes", Wire.Int bytes) ]
        "request rejected: oversized";
      let noun =
        match wire with Wire_bin.Json -> "line" | Wire_bin.Binary -> "frame"
      in
      respond
        (render wire
           (Proto.error_response ~ctx ~id:Wire.Null Proto.Invalid_request
              (Printf.sprintf "request %s of %d bytes exceeds the %d byte limit"
                 noun bytes limit))))

(* The first record on a connection, if it is a well-formed hello —
   anything else (including a malformed one) takes the ordinary request
   path and the connection stays JSON. *)
let hello_env line =
  match Wire.parse line with
  | Error _ -> None
  | Ok w -> (
      match Proto.request_of_wire w with
      | Ok ({ Proto.request = Proto.Hello m; _ } as env) -> Some (env, m)
      | Ok _ | Error _ -> None)

(* Answer a hello and switch the connection's codec. The response goes
   out as a JSON line, before the switch, so a client can read it with
   line discipline before changing its own codec; it is counted, timed
   and logged before it goes out, so a client that has it sees those. *)
let negotiate h w env m =
  let ctx = Rvu_obs.Ctx.derive env.Proto.id in
  Rvu_obs.Ctx.with_ctx ctx (fun () ->
      let t0 = Rvu_obs.Clock.now_s () in
      let response =
        Wire.print
          (Proto.ok_response ~ctx ~id:env.Proto.id
             (Wire.Obj [ ("wire", Wire.String (Wire_bin.mode_string m)) ]))
      in
      let dt = Rvu_obs.Clock.now_s () -. t0 in
      h.answered (`Hello dt);
      if Rvu_obs.Log.enabled Rvu_obs.Log.Info then
        Rvu_obs.Log.info
          ~fields:
            [
              ("kind", Wire.String "hello");
              ("outcome", Wire.String "ok");
              ("ms", Wire.Float (dt *. 1000.0));
            ]
          "response";
      respond w response);
  w.mode <- m

let upgrade ic oc =
  output_string oc "{\"id\":0,\"kind\":\"hello\",\"wire\":\"binary\"}\n";
  flush oc;
  match Wire.parse (input_line ic) with
  | Ok w ->
      Option.bind (Wire.member "ok" w) (Wire.member "wire")
      = Some (Wire.String "binary")
  | Error _ -> false

let serve ?(wire = Wire_bin.Json) h ic oc =
  let w =
    {
      oc;
      lock = Mutex.create ();
      reader_domain = Domain.self ();
      mode = wire;
      read_flushed = false;
    }
  in
  let r = make_reader ~before_input:(flush_held w) ~max_bytes:h.max_bytes ic in
  let respond = respond w in
  (* A length prefix whose high byte is '{' (0x7B) would announce a
     >= 2 GiB frame, so a '{' first byte is a JSON client — typically a
     hello line — on a pinned-binary start. *)
  if wire = Wire_bin.Binary && peek r = Some '{' then w.mode <- Wire_bin.Json;
  let rec loop ~first =
    match read r w.mode with
    | Line l when String.trim l = "" -> loop ~first
    | Line l ->
        (match if first then hello_env l else None with
        | Some (env, m) -> negotiate h w env m
        | None -> h.line l ~respond);
        loop ~first:false
    | Frame p ->
        h.payload p ~respond;
        loop ~first
    | Oversized n ->
        h.answered `Oversized;
        reject_oversized ~wire:w.mode ~limit:h.max_bytes n ~respond;
        if w.mode = Wire_bin.Json then loop ~first:false
    | Truncated -> Rvu_obs.Log.warn "connection closed mid-frame"
    | Eof -> ()
  in
  loop ~first:true;
  flush_held w ();
  h.wait_idle ();
  try flush oc with _ -> ()

let call handle =
  let lock = Mutex.create () in
  let done_ = Condition.create () in
  let result = ref None in
  handle ~respond:(fun resp ->
      Mutex.lock lock;
      result := Some resp;
      Condition.signal done_;
      Mutex.unlock lock);
  Mutex.lock lock;
  while !result = None do
    Condition.wait done_ lock
  done;
  Mutex.unlock lock;
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Sockets *)

let resolve_host host =
  try Unix.inet_addr_of_string host
  with _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 -> addrs.(0)
    | _ | (exception Not_found) ->
        invalid_arg (Printf.sprintf "cannot resolve host %S" host))

let listen ~name ~host ~port =
  (match Sys.os_type with
  | "Unix" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ());
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (resolve_host host, port));
  Unix.listen sock 64;
  Printf.eprintf "rvu %s: listening on %s:%d\n%!" name host port;
  sock

let serve_socket ~name serve fd =
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  Rvu_obs.Log.debug "connection accepted";
  (try serve ic oc
   with e ->
     Rvu_obs.Log.error
       ~fields:[ ("exn", Wire.String (Printexc.to_string e)) ]
       "connection error";
     Printf.eprintf "rvu %s: connection error: %s\n%!" name
       (Printexc.to_string e));
  Rvu_obs.Log.debug "connection closed";
  (* One close only: ic and oc share the descriptor. *)
  close_out_noerr oc
