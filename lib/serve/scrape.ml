(* Minimal HTTP/1.1 scrape endpoint for the metrics registry.

   One listener thread accepts loopback connections and answers:
     GET /metrics  -> OpenMetrics exposition (the [render] callback)
     GET /healthz  -> "ok"
   anything else  -> 404.

   Scrapes are rare (a poll every second or two) and tiny, so each
   connection is handled inline on the listener thread — no worker
   pool, no keep-alive (the response closes the connection).  The
   server must never take the service's locks: [render] reads the
   lock-free metrics snapshot, so a scrape cannot stall the scheduler.

   A POSIX thread, not a domain: the listener spends its life blocked
   in [accept], exactly the workload threads multiplex well. *)

type t = {
  fd : Unix.file_descr;
  port : int;
  stopped : bool Atomic.t;
  mutable listener : Thread.t option;
}

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let openmetrics_content_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"

(* Read until the blank line that ends the request head (we never need
   a body), bounded so a hostile peer cannot grow the buffer. *)
let read_head fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 256 in
  let rec loop () =
    if Buffer.length buf > 8192 then Buffer.contents buf
    else
      let n = try Unix.read fd chunk 0 (Bytes.length chunk) with _ -> 0 in
      if n = 0 then Buffer.contents buf
      else begin
        Buffer.add_subbytes buf chunk 0 n;
        let s = Buffer.contents buf in
        if
          String.length s >= 4
          && String.sub s (String.length s - 4) 4 = "\r\n\r\n"
          || String.length s >= 2
             && String.sub s (String.length s - 2) 2 = "\n\n"
        then s
        else loop ()
      end
  in
  loop ()

let request_path head =
  match String.split_on_char '\n' head with
  | line :: _ -> (
      match String.split_on_char ' ' (String.trim line) with
      | [ "GET"; path; _ ] | [ "GET"; path ] -> Some path
      | _ -> None)
  | [] -> None

let handle ~render client =
  Fun.protect
    ~finally:(fun () -> try Unix.close client with _ -> ())
    (fun () ->
      let head = read_head client in
      let response =
        match request_path head with
        | Some "/metrics" ->
            http_response ~status:"200 OK"
              ~content_type:openmetrics_content_type (render ())
        | Some "/healthz" ->
            http_response ~status:"200 OK" ~content_type:"text/plain" "ok\n"
        | Some _ ->
            http_response ~status:"404 Not Found" ~content_type:"text/plain"
              "not found\n"
        | None ->
            http_response ~status:"400 Bad Request"
              ~content_type:"text/plain" "bad request\n"
      in
      let bytes = Bytes.of_string response in
      let len = Bytes.length bytes in
      let off = ref 0 in
      while !off < len do
        let n = Unix.write client bytes !off (len - !off) in
        if n = 0 then off := len else off := !off + n
      done)

let scrapes_counter = Kf_obs.Counter.make "serve.scrapes"

let listen_loop t ~render =
  while not (Atomic.get t.stopped) do
    match Unix.accept t.fd with
    | client, _ ->
        Kf_obs.Counter.incr scrapes_counter;
        (try handle ~render client with _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception _ -> if not (Atomic.get t.stopped) then Thread.yield ()
  done

let default_addr = "127.0.0.1"

let port_var =
  Kf_obs.Env.int ~min:0 ~max:65535 "KF_METRICS_PORT"
    ~doc:"OpenMetrics endpoint port of kf serve, polled by kf top."
    ~default:"none"

let start ?(addr = default_addr) ~port ~render () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen fd 16
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  let t = { fd; port; stopped = Atomic.make false; listener = None } in
  t.listener <- Some (Thread.create (fun () -> listen_loop t ~render) ());
  t

let port t = t.port

let stop t =
  Atomic.set t.stopped true;
  (* closing the listening socket kicks the listener out of accept *)
  (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with _ -> ());
  (try Unix.close t.fd with _ -> ());
  match t.listener with
  | Some th ->
      Thread.join th;
      t.listener <- None
  | None -> ()

(* --- client (kf top, tests, smoke checks) ------------------------------- *)

let fetch ?(addr = default_addr) ~port ~path () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with _ -> ())
    (fun () ->
      match
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string addr, port))
      with
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "connect %s:%d: %s" addr port
                   (Unix.error_message e))
      | () ->
          let req =
            Printf.sprintf
              "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n" path
              addr
          in
          let bytes = Bytes.of_string req in
          ignore (Unix.write fd bytes 0 (Bytes.length bytes));
          let buf = Buffer.create 4096 in
          let chunk = Bytes.create 4096 in
          let rec drain () =
            let n =
              try Unix.read fd chunk 0 (Bytes.length chunk) with _ -> 0
            in
            if n > 0 then begin
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
            end
          in
          drain ();
          let text = Buffer.contents buf in
          (* split head from body at the first blank line *)
          let head_end =
            let n = String.length text in
            let rec find i =
              if i + 3 >= n then None
              else if
                text.[i] = '\r' && text.[i + 1] = '\n' && text.[i + 2] = '\r'
                && text.[i + 3] = '\n'
              then Some (i + 4)
              else find (i + 1)
            in
            find 0
          in
          let body =
            match head_end with
            | Some i -> String.sub text i (String.length text - i)
            | None -> text
          in
          let ok =
            String.length text >= 12 && String.sub text 9 3 = "200"
          in
          if ok then Ok body
          else
            Error
              (match String.index_opt text '\r' with
              | Some i -> String.sub text 0 i
              | None -> "malformed response"))
