type field =
  | Int of int
  | Float of float
  | Str of string
  | Floats of float array
  | Ints of int array

type payload = (string * field) list

type t = { algorithm : string; iteration : int; payload : payload }

exception Corrupt of string

let version = "kf-ckpt/1"
let writes = Kf_obs.Counter.make "resil.ckpt_writes"
let rewrites = Kf_obs.Counter.make "resil.ckpt_rewrites"
let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- FNV-1a 64 -----------------------------------------------------------

   The one hash behind every checksum in the tree: checkpoint files, the
   dist wire frames and the CLI's weights fingerprint.  The state is a
   local [Int64] ref that never escapes, so ocamlopt keeps it unboxed in
   a register: a byte costs one xor and one multiply, with no closure
   call and no allocation. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_bytes h b pos len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i))))
        fnv_prime
  done;
  !h

let fnv1a64 s ~pos ~len =
  fnv_bytes fnv_offset (Bytes.unsafe_of_string s) pos len

let hex64 h = Printf.sprintf "%016Lx" h

(* The bytes hashed are the little-endian bit patterns, 512 floats at a
   time through one 4 KiB window, so fingerprinting a model allocates
   nothing proportional to it. *)
let checksum_floats v =
  let window = Bytes.create 4096 in
  let per = Bytes.length window / 8 in
  let h = ref fnv_offset and i = ref 0 in
  while !i < Array.length v do
    let k = min per (Array.length v - !i) in
    for j = 0 to k - 1 do
      Bytes.set_int64_le window (8 * j) (Int64.bits_of_float v.(!i + j))
    done;
    h := fnv_bytes !h window 0 (8 * k);
    i := !i + k
  done;
  hex64 !h

(* --- payload encoding ----------------------------------------------------- *)

(* field := tag u8 · name-len u16le · name · body
   bodies: Int/Float = 8 bytes le; Str = u32le length + bytes;
   Floats/Ints = u32le count + 8·count bytes le. Floats travel as
   [Int64.bits_of_float] so roundtrips are bit-exact (NaN payloads and
   signed zeros included). *)

let tag_of = function
  | Int _ -> 0
  | Float _ -> 1
  | Str _ -> 2
  | Floats _ -> 3
  | Ints _ -> 4

let body_size = function
  | Int _ | Float _ -> 8
  | Str s -> 4 + String.length s
  | Floats v -> 4 + (8 * Array.length v)
  | Ints v -> 4 + (8 * Array.length v)

let encoded_size payload =
  List.fold_left
    (fun acc (name, f) ->
      if String.length name > 0xffff then
        invalid_arg "Ckpt.encode: field name too long";
      acc + 3 + String.length name + body_size f)
    0 payload

let put_u32 b pos n = Bytes.set_int32_le b pos (Int32.of_int n)

(* Writes one field at [pos] and returns the offset after it. *)
let put_field b pos (name, f) =
  let nl = String.length name in
  Bytes.set_uint8 b pos (tag_of f);
  Bytes.set_uint16_le b (pos + 1) nl;
  Bytes.blit_string name 0 b (pos + 3) nl;
  let pos = pos + 3 + nl in
  match f with
  | Int n ->
      Bytes.set_int64_le b pos (Int64.of_int n);
      pos + 8
  | Float x ->
      Bytes.set_int64_le b pos (Int64.bits_of_float x);
      pos + 8
  | Str s ->
      put_u32 b pos (String.length s);
      Bytes.blit_string s 0 b (pos + 4) (String.length s);
      pos + 4 + String.length s
  | Floats v ->
      put_u32 b pos (Array.length v);
      for k = 0 to Array.length v - 1 do
        Bytes.set_int64_le b (pos + 4 + (8 * k)) (Int64.bits_of_float v.(k))
      done;
      pos + 4 + (8 * Array.length v)
  | Ints v ->
      put_u32 b pos (Array.length v);
      for k = 0 to Array.length v - 1 do
        Bytes.set_int64_le b (pos + 4 + (8 * k)) (Int64.of_int v.(k))
      done;
      pos + 4 + (8 * Array.length v)

(* [b] must have [encoded_size payload] bytes of room from [pos]. *)
let encode_at b pos payload = ignore (List.fold_left (put_field b) pos payload)

let encode_framed ~header ~trailer payload =
  let n = encoded_size payload in
  let b = Bytes.create (header + n + trailer) in
  encode_at b header payload;
  (b, fnv_bytes fnv_offset b header n)

let encode payload =
  let b = Bytes.create (encoded_size payload) in
  encode_at b 0 payload;
  Bytes.unsafe_to_string b

let decode ?(pos = 0) ?len s =
  let stop = match len with Some l -> pos + l | None -> String.length s in
  if pos < 0 || stop < pos || stop > String.length s then
    invalid_arg "Ckpt.decode: range outside the string";
  let p = ref pos in
  (* Claims the next [k] bytes and returns their offset.  [k] is checked
     against what is left before anything is read or allocated, so a
     count from the bytes never sizes an allocation they cannot back. *)
  let take k what =
    if k > stop - !p then corrupt "checkpoint payload truncated in %s" what;
    let at = !p in
    p := at + k;
    at
  in
  let u32 what =
    Int32.to_int (String.get_int32_le s (take 4 what)) land 0xffff_ffff
  in
  let i64 what = String.get_int64_le s (take 8 what) in
  let str len what = String.sub s (take len what) len in
  let fields = ref [] in
  while !p < stop do
    let tag = String.get_uint8 s (take 1 "field tag") in
    let name_len = String.get_uint16_le s (take 2 "field name length") in
    let name = str name_len "field name" in
    let f =
      match tag with
      | 0 -> Int (Int64.to_int (i64 name))
      | 1 -> Float (Int64.float_of_bits (i64 name))
      | 2 -> Str (str (u32 name) name)
      | 3 ->
          let c = u32 name in
          let at = take (8 * c) name in
          let v = Array.create_float c in
          for k = 0 to c - 1 do
            v.(k) <- Int64.float_of_bits (String.get_int64_le s (at + (8 * k)))
          done;
          Floats v
      | 4 ->
          let c = u32 name in
          let at = take (8 * c) name in
          let v = Array.make c 0 in
          for k = 0 to c - 1 do
            v.(k) <- Int64.to_int (String.get_int64_le s (at + (8 * k)))
          done;
          Ints v
      | t -> corrupt "unknown field tag %d for %S" t name
    in
    fields := (name, f) :: !fields
  done;
  List.rev !fields

(* --- accessors ------------------------------------------------------------ *)

let find payload name = List.assoc_opt name payload

let get_int payload name =
  match find payload name with
  | Some (Int n) -> n
  | Some _ -> corrupt "checkpoint field %S has the wrong type (want int)" name
  | None -> corrupt "checkpoint is missing field %S" name

let get_float payload name =
  match find payload name with
  | Some (Float x) -> x
  | Some _ -> corrupt "checkpoint field %S has the wrong type (want float)" name
  | None -> corrupt "checkpoint is missing field %S" name

let get_str payload name =
  match find payload name with
  | Some (Str s) -> s
  | Some _ -> corrupt "checkpoint field %S has the wrong type (want string)" name
  | None -> corrupt "checkpoint is missing field %S" name

let get_floats payload name =
  match find payload name with
  | Some (Floats v) -> v
  | Some _ ->
      corrupt "checkpoint field %S has the wrong type (want float array)" name
  | None -> corrupt "checkpoint is missing field %S" name

let get_ints payload name =
  match find payload name with
  | Some (Ints v) -> v
  | Some _ ->
      corrupt "checkpoint field %S has the wrong type (want int array)" name
  | None -> corrupt "checkpoint is missing field %S" name

(* --- file I/O ------------------------------------------------------------- *)

(* Every error names the file: [open_in_bin]'s own message does, and
   a read that fails after it (an I/O error) is prefixed.  A directory
   opens without complaint and only fails to read, so it is refused
   first. *)
let read_file path =
  if Sys.file_exists path && Sys.is_directory path then
    raise (Sys_error (path ^ ": is a directory"));
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      try really_input_string ic (in_channel_length ic)
      with Sys_error msg -> raise (Sys_error (path ^ ": " ^ msg)))

(* Checks the header and checksum of a whole file image and returns the
   payload's offset and length with its verified checksum. *)
let parse_file path raw =
  let fail what = corrupt "%s: %s" path what in
  let line_end from =
    match String.index_from_opt raw from '\n' with
    | Some i -> i
    | None -> fail "not a kf-ckpt file (missing header)"
  in
  let e1 = line_end 0 in
  let magic = String.sub raw 0 e1 in
  if not (String.length magic >= 8 && String.sub magic 0 8 = "kf-ckpt/") then
    fail "not a kf-ckpt file";
  if magic <> version then
    corrupt "%s: checkpoint version %S is not supported (this build reads %S)"
      path magic version;
  let e2 = line_end (e1 + 1) in
  let sum = String.sub raw (e1 + 1) (e2 - e1 - 1) in
  let e3 = line_end (e2 + 1) in
  let len_s = String.sub raw (e2 + 1) (e3 - e2 - 1) in
  let len =
    match int_of_string_opt len_s with
    | Some n when n >= 0 -> n
    | _ -> fail "malformed payload length"
  in
  let pos = e3 + 1 in
  if String.length raw - pos <> len then
    corrupt "%s: truncated checkpoint (payload has %d of %d bytes)" path
      (String.length raw - pos) len;
  if hex64 (fnv1a64 raw ~pos ~len) <> sum then
    corrupt "%s: checksum mismatch — checkpoint is damaged, refusing to load"
      path;
  (pos, len, sum)

let read_with_checksum ~path =
  let raw = read_file path in
  let pos, len, sum = parse_file path raw in
  match
    let payload = decode ~pos ~len raw in
    {
      algorithm = get_str payload "ckpt.algorithm";
      iteration = get_int payload "ckpt.iteration";
      payload;
    }
  with
  | ck -> (ck, sum)
  | exception Corrupt msg -> corrupt "%s: %s" path msg

let read ~path = fst (read_with_checksum ~path)

(* The whole file in one buffer, sized up front: the payload is encoded
   and hashed in place, then the three header lines, whose length does
   not depend on the hash, are written in front of it. *)
let render ~algorithm ~iteration payload =
  let payload =
    ("ckpt.algorithm", Str algorithm) :: ("ckpt.iteration", Int iteration)
    :: payload
  in
  let len = encoded_size payload in
  let head h = Printf.sprintf "%s\n%s\n%d\n" version (hex64 h) len in
  let header = String.length (head 0L) in
  let b, h = encode_framed ~header ~trailer:0 payload in
  Bytes.blit_string (head h) 0 b 0 header;
  Bytes.unsafe_to_string b

let write_raw path data =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     (* an injected truncation drops the payload's tail before the
        close — exactly what a crash mid-write leaves behind *)
     if Fault.fire Trunc ~point:"ckpt.write" then begin
       flush oc;
       let keep = max 0 (String.length data - (String.length data / 3) - 1) in
       Unix.ftruncate (Unix.descr_of_out_channel oc) keep
     end;
     close_out oc
   with e ->
     close_out_noerr oc;
     raise e);
  tmp

let path_var =
  Kf_obs.Env.path "KF_CKPT"
    ~doc:"Checkpoint file kf train writes (--checkpoint)." ~default:"none"

let write ~path ~algorithm ~iteration payload =
  let data = render ~algorithm ~iteration payload in
  let rec attempt n =
    let tmp = write_raw path data in
    (* stronger than re-parsing the file: any byte that differs from
       the rendered image forces a rewrite, not only one the checksum
       catches *)
    if String.equal (read_file tmp) data then begin
      Sys.rename tmp path;
      Kf_obs.Counter.incr writes
    end
    else begin
      (try Sys.remove tmp with Sys_error _ -> ());
      Kf_obs.Counter.incr rewrites;
      Kf_obs.Trace.instant "ckpt.rewrite" ~args:[ ("path", path) ];
      if n >= 3 then
        corrupt "%s: checkpoint write kept failing verification after %d attempts"
          path n
      else attempt (n + 1)
    end
  in
  attempt 1
