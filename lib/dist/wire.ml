exception Closed

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let proto_version = 1

let magic = "kf-dist/1"

let magic_len = String.length magic

(* magic · tag u8 · len u32le *)
let header_len = magic_len + 1 + 4

let checksum_len = 8

let max_payload = 1 lsl 30

type part =
  | Csr_part of Matrix.Csr.t
  | Dense_part of Matrix.Dense.t

type msg =
  | Hello of { proto : int; pid : int }
  | Shard of {
      mid : int;
      mode : Netmodel.mode;
      block_cols : int;
      part : part;
    }
  | Drop of { mid : int }
  | Pattern of { mid : int; y : float array; v : float array option }
  | Xt_y of { mid : int; y : float array }
  | X_y of { mid : int; y : float array }
  | Partial of { w : float array; compute_ns : int }
  | Blocks of {
      cols : int;
      ids : int array;
      values : float array;
      compute_ns : int;
    }
  | Rows of { w : float array; compute_ns : int }
  | Ping of { reply_bytes : int }
  | Pong of { payload : string }
  | Stats_req
  | Stats of { ops : int; compute : Kf_obs.Histogram.t }
  | Shutdown

(* --- payload codecs (tagged fields via the checkpoint layer) ----------- *)

module C = Kf_resil.Ckpt

let tag_of = function
  | Hello _ -> 0
  | Shard _ -> 1
  | Drop _ -> 2
  | Pattern _ -> 3
  | Xt_y _ -> 4
  | X_y _ -> 5
  | Partial _ -> 6
  | Blocks _ -> 7
  | Rows _ -> 8
  | Ping _ -> 9
  | Pong _ -> 10
  | Stats_req -> 11
  | Stats _ -> 12
  | Shutdown -> 13

let part_fields = function
  | Csr_part x ->
      [
        ("kind", C.Str "csr");
        ("rows", C.Int x.Matrix.Csr.rows);
        ("cols", C.Int x.Matrix.Csr.cols);
        ("values", C.Floats x.Matrix.Csr.values);
        ("col_idx", C.Ints x.Matrix.Csr.col_idx);
        ("row_off", C.Ints x.Matrix.Csr.row_off);
      ]
  | Dense_part x ->
      [
        ("kind", C.Str "dense");
        ("rows", C.Int x.Matrix.Dense.rows);
        ("cols", C.Int x.Matrix.Dense.cols);
        ("data", C.Floats x.Matrix.Dense.data);
      ]

let part_of_fields p =
  match C.get_str p "kind" with
  | "csr" ->
      Csr_part
        (Matrix.Csr.create ~rows:(C.get_int p "rows") ~cols:(C.get_int p "cols")
           ~values:(C.get_floats p "values") ~col_idx:(C.get_ints p "col_idx")
           ~row_off:(C.get_ints p "row_off"))
  | "dense" ->
      let rows = C.get_int p "rows" in
      let cols = C.get_int p "cols" in
      let data = C.get_floats p "data" in
      if Array.length data <> rows * cols then
        corrupt "dense shard has %d values for %dx%d" (Array.length data) rows
          cols;
      Dense_part (Matrix.Dense.init rows cols (fun i j -> data.((i * cols) + j)))
  | k -> corrupt "unknown shard kind %S" k

let hist_fields h =
  let buckets = Kf_obs.Histogram.cumulative_buckets h in
  [
    ("bounds", C.Floats (Array.of_list (List.map fst buckets)));
    ("cum", C.Ints (Array.of_list (List.map snd buckets)));
    ("count", C.Int (Kf_obs.Histogram.count h));
    ("sum", C.Float (Kf_obs.Histogram.sum h));
  ]

let hist_of_fields p =
  let bounds = C.get_floats p "bounds" in
  let cum = C.get_ints p "cum" in
  if Array.length bounds <> Array.length cum then
    corrupt "histogram bounds/counts length mismatch";
  Kf_obs.Histogram.of_cumulative
    ~buckets:(Array.to_list (Array.map2 (fun b c -> (b, c)) bounds cum))
    ~count:(C.get_int p "count") ~sum:(C.get_float p "sum")

let payload_fields = function
  | Hello { proto; pid } -> [ ("proto", C.Int proto); ("pid", C.Int pid) ]
  | Shard { mid; mode; block_cols; part } ->
      ("mid", C.Int mid)
      :: ("mode", C.Str (Netmodel.mode_name mode))
      :: ("block_cols", C.Int block_cols)
      :: part_fields part
  | Drop { mid } -> [ ("mid", C.Int mid) ]
  | Pattern { mid; y; v } ->
      ("mid", C.Int mid) :: ("y", C.Floats y)
      :: (match v with None -> [] | Some v -> [ ("v", C.Floats v) ])
  | Xt_y { mid; y } -> [ ("mid", C.Int mid); ("y", C.Floats y) ]
  | X_y { mid; y } -> [ ("mid", C.Int mid); ("y", C.Floats y) ]
  | Partial { w; compute_ns } ->
      [ ("w", C.Floats w); ("compute_ns", C.Int compute_ns) ]
  | Blocks { cols; ids; values; compute_ns } ->
      [
        ("cols", C.Int cols);
        ("ids", C.Ints ids);
        ("values", C.Floats values);
        ("compute_ns", C.Int compute_ns);
      ]
  | Rows { w; compute_ns } ->
      [ ("w", C.Floats w); ("compute_ns", C.Int compute_ns) ]
  | Ping { reply_bytes } -> [ ("reply_bytes", C.Int reply_bytes) ]
  | Pong { payload } -> [ ("payload", C.Str payload) ]
  | Stats_req -> []
  | Stats { ops; compute } -> ("ops", C.Int ops) :: hist_fields compute
  | Shutdown -> []

let msg_of_payload tag p =
  match tag with
  | 0 -> Hello { proto = C.get_int p "proto"; pid = C.get_int p "pid" }
  | 1 ->
      let mode_s = C.get_str p "mode" in
      let mode =
        match Netmodel.mode_of_string mode_s with
        | Some m -> m
        | None -> corrupt "unknown shard mode %S" mode_s
      in
      Shard
        {
          mid = C.get_int p "mid";
          mode;
          block_cols = C.get_int p "block_cols";
          part = part_of_fields p;
        }
  | 2 -> Drop { mid = C.get_int p "mid" }
  | 3 ->
      Pattern
        {
          mid = C.get_int p "mid";
          y = C.get_floats p "y";
          v = (match C.find p "v" with Some (C.Floats v) -> Some v | _ -> None);
        }
  | 4 -> Xt_y { mid = C.get_int p "mid"; y = C.get_floats p "y" }
  | 5 -> X_y { mid = C.get_int p "mid"; y = C.get_floats p "y" }
  | 6 ->
      Partial { w = C.get_floats p "w"; compute_ns = C.get_int p "compute_ns" }
  | 7 ->
      let ids = C.get_ints p "ids" in
      let values = C.get_floats p "values" in
      Blocks
        {
          cols = C.get_int p "cols";
          ids;
          values;
          compute_ns = C.get_int p "compute_ns";
        }
  | 8 -> Rows { w = C.get_floats p "w"; compute_ns = C.get_int p "compute_ns" }
  | 9 -> Ping { reply_bytes = C.get_int p "reply_bytes" }
  | 10 -> Pong { payload = C.get_str p "payload" }
  | 11 -> Stats_req
  | 12 -> Stats { ops = C.get_int p "ops"; compute = hist_of_fields p }
  | 13 -> Shutdown
  | t -> corrupt "unknown message tag %d" t

(* --- framing ----------------------------------------------------------- *)

let encode msg =
  let fields = payload_fields msg in
  let n = C.encoded_size fields in
  if n > max_payload then invalid_arg "Wire.encode: payload too large";
  let b, sum =
    C.encode_framed ~header:header_len ~trailer:checksum_len fields
  in
  Bytes.blit_string magic 0 b 0 magic_len;
  Bytes.set_uint8 b magic_len (tag_of msg);
  Bytes.set_int32_le b (magic_len + 1) (Int32.of_int n);
  Bytes.set_int64_le b (header_len + n) sum;
  Bytes.unsafe_to_string b

let u32_at s pos = Int32.to_int (String.get_int32_le s pos) land 0xffff_ffff

(* [s] holds the [len]-byte payload at [pos], then its checksum *)
let decode_body ~tag s ~pos ~len =
  let sum = String.get_int64_le s (pos + len) in
  if not (Int64.equal (C.fnv1a64 s ~pos ~len) sum) then
    corrupt "frame checksum mismatch";
  match msg_of_payload tag (C.decode ~pos ~len s) with
  | m -> m
  | exception C.Corrupt s -> corrupt "frame payload: %s" s

let decode frame =
  let n = String.length frame in
  if n < header_len + checksum_len then corrupt "frame truncated (%d bytes)" n;
  if String.sub frame 0 magic_len <> magic then
    corrupt "bad frame magic (want %S)" magic;
  let tag = Char.code frame.[magic_len] in
  let len = u32_at frame (magic_len + 1) in
  if len > max_payload then corrupt "frame payload length %d too large" len;
  if n <> header_len + len + checksum_len then
    corrupt "frame length mismatch (%d of %d payload bytes)"
      (n - header_len - checksum_len)
      len;
  decode_body ~tag frame ~pos:header_len ~len

(* --- socket I/O -------------------------------------------------------- *)

let really_read fd buf off len =
  let pos = ref off in
  let stop = off + len in
  while !pos < stop do
    match Unix.read fd buf !pos (stop - !pos) with
    | 0 -> raise Closed
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let really_write fd buf off len =
  let pos = ref off in
  let stop = off + len in
  while !pos < stop do
    match Unix.write fd buf !pos (stop - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let send fd msg =
  let frame = encode msg in
  really_write fd (Bytes.unsafe_of_string frame) 0 (String.length frame);
  String.length frame

(* Handshake read: module initialisers of the host binary may print to
   stdout before [Worker.maybe_run] reclaims it (qcheck, for one,
   announces its random seed at startup), and those bytes precede the
   worker's first frame.  Scan to the first magic occurrence, then
   parse normally — only the handshake needs this; after [maybe_run]
   redirects stdout the stream carries nothing but frames. *)
let recv_handshake fd =
  let b = Bytes.create 1 in
  let matched = ref 0 and skipped = ref 0 in
  while !matched < magic_len do
    really_read fd b 0 1;
    incr skipped;
    if !skipped > 1 lsl 20 then corrupt "no handshake frame in the first 1 MiB";
    if Bytes.get b 0 = magic.[!matched] then incr matched
    else matched := if Bytes.get b 0 = magic.[0] then 1 else 0
  done;
  let hdr = Bytes.create (header_len - magic_len) in
  really_read fd hdr 0 (header_len - magic_len);
  let hdr = Bytes.unsafe_to_string hdr in
  let tag = Char.code hdr.[0] in
  let len = u32_at hdr 1 in
  if len < 0 || len > max_payload then
    corrupt "frame payload length %d out of range" len;
  let rest = Bytes.create (len + checksum_len) in
  really_read fd rest 0 (len + checksum_len);
  let msg = decode_body ~tag (Bytes.unsafe_to_string rest) ~pos:0 ~len in
  (msg, !skipped - magic_len + header_len + len + checksum_len)

let recv fd =
  let header = Bytes.create header_len in
  really_read fd header 0 header_len;
  let header = Bytes.unsafe_to_string header in
  if String.sub header 0 magic_len <> magic then
    corrupt "bad frame magic (want %S)" magic;
  let tag = Char.code header.[magic_len] in
  let len = u32_at header (magic_len + 1) in
  if len < 0 || len > max_payload then
    corrupt "frame payload length %d out of range" len;
  let rest = Bytes.create (len + checksum_len) in
  really_read fd rest 0 (len + checksum_len);
  let msg = decode_body ~tag (Bytes.unsafe_to_string rest) ~pos:0 ~len in
  (msg, header_len + len + checksum_len)
