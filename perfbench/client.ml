(* The load generator: one process, one thread, non-blocking connections
   multiplexed with [Unix.select].

   Open loop: request [i] of a phase is due at [t0 + i / rate]. Every
   overdue request is sent at once, and each is timed from its due time,
   so a stall delays (and is charged to) every request queued behind it
   instead of silently pausing the schedule. The gap between due and
   actual send is the generator's own lag, reported separately.

   Closed loop: a fixed number of requests in flight per connection; each
   response releases the next request on the same connection. *)

module Wire = Rvu_obs.Wire
module Wb = Rvu_service.Wire_bin

let now = Rvu_obs.Clock.now_s

type conn = {
  fd : Unix.file_descr;
  wire : Wb.mode;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  mutable wbuf : Bytes.t;
  mutable wlen : int;
  mutable woff : int;
}

let connect ?(hello = false) ~wire port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let c =
    { fd; wire; rbuf = Bytes.create 65536; rlen = 0; wbuf = Bytes.create 65536; wlen = 0; woff = 0 }
  in
  if hello then begin
    (* Negotiate binary frames on a connection that starts in JSON. *)
    let line = "{\"id\":0,\"kind\":\"hello\",\"wire\":\"binary\"}\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    let b = Bytes.create 1 in
    let rec skip () =
      if Unix.read fd b 0 1 = 1 && Bytes.get b 0 <> '\n' then skip ()
    in
    skip ()
  end;
  Unix.set_nonblock fd;
  c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let push c s =
  let n = String.length s in
  if c.wlen + n > Bytes.length c.wbuf then begin
    let live = c.wlen - c.woff in
    let cap = max (2 * Bytes.length c.wbuf) (live + n) in
    let b = if live + n > Bytes.length c.wbuf then Bytes.create cap else c.wbuf in
    Bytes.blit c.wbuf c.woff b 0 live;
    c.wbuf <- b;
    c.wlen <- live;
    c.woff <- 0
  end;
  Bytes.blit_string s 0 c.wbuf c.wlen n;
  c.wlen <- c.wlen + n

let pending c = c.wlen > c.woff

let flush c =
  let rec go () =
    if pending c then
      match Unix.single_write c.fd c.wbuf c.woff (c.wlen - c.woff) with
      | k ->
          c.woff <- c.woff + k;
          go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ();
  if not (pending c) then begin
    c.woff <- 0;
    c.wlen <- 0
  end

exception Closed

(* Read what is available and hand every complete message (line without
   newline, or frame payload) to [f]. *)
let read_messages c f =
  let rec fill () =
    if c.rlen = Bytes.length c.rbuf then begin
      let b = Bytes.create (2 * Bytes.length c.rbuf) in
      Bytes.blit c.rbuf 0 b 0 c.rlen;
      c.rbuf <- b
    end;
    match Unix.read c.fd c.rbuf c.rlen (Bytes.length c.rbuf - c.rlen) with
    | 0 -> raise Closed
    | k ->
        c.rlen <- c.rlen + k;
        if c.rlen = Bytes.length c.rbuf then fill ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  fill ();
  let pos = ref 0 in
  let continue = ref true in
  while !continue do
    match c.wire with
    | Wb.Json -> (
        match Bytes.index_from_opt c.rbuf !pos '\n' with
        | Some nl when nl < c.rlen ->
            f (Bytes.sub_string c.rbuf !pos (nl - !pos));
            pos := nl + 1
        | _ -> continue := false)
    | Wb.Binary ->
        if c.rlen - !pos < 4 then continue := false
        else
          let len = Int32.to_int (Bytes.get_int32_be c.rbuf !pos) land 0xffffffff in
          if c.rlen - !pos - 4 < len then continue := false
          else begin
            f (Bytes.sub_string c.rbuf (!pos + 4) len);
            pos := !pos + 4 + len
          end
  done;
  if !pos > 0 then begin
    Bytes.blit c.rbuf !pos c.rbuf 0 (c.rlen - !pos);
    c.rlen <- c.rlen - !pos
  end

(* The envelope id of a response, without decoding the rest. *)
let response_id wire msg =
  match wire with
  | Wb.Json ->
      let p = 6 (* {"id": *) in
      if String.length msg > p && String.sub msg 0 p = "{\"id\":" then begin
        let i = ref p and v = ref 0 in
        while !i < String.length msg && msg.[!i] >= '0' && msg.[!i] <= '9' do
          v := (!v * 10) + Char.code msg.[!i] - 48;
          incr i
        done;
        if !i > p then !v else -1
      end
      else -1
  | Wb.Binary -> (
      match Wb.scan_request msg with
      | Some { Wb.id_value = Some (a, b); _ } -> (
          match Wb.decode_span msg ~pos:a ~len:(b - a) with Ok (Wire.Int n) -> n | _ -> -1)
      | _ -> -1)

let select conns timeout =
  let fds = List.map (fun c -> c.fd) conns in
  let wfds = List.filter_map (fun c -> if pending c then Some c.fd else None) conns in
  match Unix.select fds wfds [] (Float.max 0.0 timeout) with
  | r, w, _ -> (r, w)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])

(* ------------------------------------------------------------------ *)
(* Phases

   Responses are handed to the caller as they arrive and never kept: a
   phase stores per-request times only for the open loop, whose length is
   fixed in advance, so the client's memory does not grow with the rate. *)

let drain_s = 20.0

type open_phase = {
  n : int;  (** requests sent *)
  due : float array;
  lag : float array;  (** send time minus due time *)
  done_at : float array;  (** arrival time; negative if missing *)
  t0 : float;
  t_end : float;  (** when the last request was due *)
}

(* [n] requests at [rate]: [message i] is the wire bytes of request [i]
   of the phase, with id [base + i + 1]; [on_response i arrived msg]
   judges its response. *)
let open_loop conns ~base ~n ~rate ~message ~on_response =
  let seconds = float_of_int n /. rate in
  let nc = Array.length conns in
  let due = Array.make n 0.0 and lag = Array.make n 0.0 in
  let done_at = Array.make n (-1.0) in
  let received = ref 0 and next = ref 0 in
  let t0 = now () +. 0.001 in
  for i = 0 to n - 1 do
    due.(i) <- t0 +. (float_of_int i /. rate)
  done;
  let cl = Array.to_list conns in
  let wire = conns.(0).wire in
  let on_msg t msg =
    let i = response_id wire msg - base - 1 in
    if i >= 0 && i < n && done_at.(i) < 0.0 then begin
      done_at.(i) <- t;
      on_response i t msg;
      incr received
    end
  in
  let deadline = t0 +. seconds +. drain_s in
  let rec loop () =
    let t = now () in
    while !next < n && due.(!next) <= t do
      let i = !next in
      push conns.(i mod nc) (message i);
      lag.(i) <- t -. due.(i);
      incr next
    done;
    Array.iter flush conns;
    if !received < n && t < deadline then begin
      let timeout = if !next < n then due.(!next) -. t else Float.min 0.05 (deadline -. t) in
      let r, _ = select cl timeout in
      if r <> [] then begin
        let t = now () in
        Array.iter (fun c -> if List.memq c.fd r then read_messages c (on_msg t)) conns
      end;
      loop ()
    end
  in
  loop ();
  { n; due; lag; done_at; t0; t_end = t0 +. seconds }

type closed_phase = {
  sent : int;
  received : int;
  started : float;
  stopped : float;  (** when sending stopped *)
}

(* [window] requests in flight per connection until [seconds] have passed
   or [limit] requests were sent (with [seconds = infinity], a batch that
   ends when all [limit] are answered). [on_response i sent arrived msg]
   judges each response. *)
let closed_loop ?(limit = max_int) conns ~base ~window ~seconds ~message ~on_response =
  let in_flight = Hashtbl.create (window * Array.length conns * 2) in
  let next = ref 0 and received = ref 0 in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let send ci t =
    if !next < limit then begin
      let i = !next in
      push conns.(ci) (message i);
      Hashtbl.replace in_flight i (ci, t);
      incr next
    end
  in
  Array.iteri
    (fun ci _ ->
      for _ = 1 to window do
        send ci t0
      done)
    conns;
  let cl = Array.to_list conns in
  let wire = conns.(0).wire in
  let deadline = (if Float.is_finite t_end then t_end else t0 +. 120.0) +. drain_s in
  let rec loop () =
    Array.iter flush conns;
    let t = now () in
    if !received < !next && t < deadline then begin
      let r, _ = select cl (Float.min 0.05 (deadline -. t)) in
      if r <> [] then begin
        let t = now () in
        Array.iter
          (fun c ->
            if List.memq c.fd r then
              read_messages c (fun msg ->
                  let i = response_id wire msg - base - 1 in
                  match Hashtbl.find_opt in_flight i with
                  | Some (ci, sent) ->
                      Hashtbl.remove in_flight i;
                      incr received;
                      on_response i sent t msg;
                      if t < t_end then send ci t
                  | None -> ()))
          conns
      end;
      loop ()
    end
  in
  loop ();
  { sent = !next; received = !received; started = t0; stopped = Float.min t_end (now ()) }

(* One request at a time on an idle connection: send [msg], return the
   response with envelope id [id]. *)
let call c ~id msg =
  push c msg;
  let result = ref None in
  let deadline = now () +. 60.0 in
  while !result = None do
    flush c;
    if now () > deadline then failwith "no response within 60 s";
    let r, _ = select [ c ] 0.05 in
    if r <> [] then
      read_messages c (fun m -> if response_id c.wire m = id then result := Some m)
  done;
  Option.get !result

let decode wire msg =
  match wire with
  | Wb.Json -> (
      match Wire.parse msg with Ok w -> w | Error e -> failwith (Wire.error_to_string e))
  | Wb.Binary -> ( match Wb.decode msg with Ok w -> w | Error e -> failwith e)

(* A [stats]/[metrics]/[health] request sent in-band on the workload's own
   connection (a second connection to a serial server would stall). *)
let control_id = ref 2_000_000_000

let control c kind =
  incr control_id;
  let id = !control_id in
  let w = decode c.wire (call c ~id (Workloads.control_message c.wire ~id kind)) in
  match Wire.member "ok" w with
  | Some ok -> ok
  | None -> failwith ("control request failed: " ^ kind)
