(** Length-prefixed binary wire format for the coordinator/worker
    protocol — versioned and checksummed the way [Kf_resil.Ckpt] files
    are.

    A frame is

    {v
      "kf-dist/1" · tag u8 · payload-length u32le · payload · fnv1a64(payload) u64le
    v}

    and the payload reuses the checkpoint layer's tagged field encoding
    and checksum ([Kf_resil.Ckpt.encode_framed]/[decode]/[fnv1a64]), so
    floats travel as IEEE-754 bits and every roundtrip is bit-exact — the property the sharded
    differential tests and crash-respawn recovery depend on.  A frame
    whose checksum or structure does not verify raises {!Corrupt};
    reading from a peer that died raises {!Closed}. *)

exception Closed
(** The peer closed the socket (worker death, coordinator exit). *)

exception Corrupt of string
(** Frame-level damage: bad magic, truncation, checksum mismatch, or a
    payload that decodes to the wrong shape. *)

val proto_version : int

type part =
  | Csr_part of Matrix.Csr.t
  | Dense_part of Matrix.Dense.t  (** a contiguous row slice *)

type msg =
  | Hello of { proto : int; pid : int }
      (** first frame a worker sends after exec *)
  | Shard of {
      mid : int;  (** coordinator-assigned matrix id *)
      mode : Netmodel.mode;
      block_cols : int;
      part : part;
    }
  | Drop of { mid : int }  (** evict a cached shard *)
  | Pattern of { mid : int; y : float array; v : float array option }
      (** fused pattern over the shard: [X_k^T (v_k .* (X_k y))];
          the coordinator applies the [alpha]/[beta z] epilogue once *)
  | Xt_y of { mid : int; y : float array }
      (** [X_k^T y_k] with [y] pre-sliced to the shard's rows *)
  | X_y of { mid : int; y : float array }  (** the shard's row slice of [X y] *)
  | Partial of { w : float array; compute_ns : int }
      (** 1D reply: a full dense length-[cols] partial *)
  | Blocks of {
      cols : int;
      ids : int array;  (** touched block indices, ascending *)
      values : float array;  (** concatenated block contents *)
      compute_ns : int;
    }  (** 1.5D reply: only the column blocks this shard touches *)
  | Rows of { w : float array; compute_ns : int }  (** [X_y] reply *)
  | Ping of { reply_bytes : int }  (** netmodel probe request *)
  | Pong of { payload : string }
  | Stats_req
  | Stats of { ops : int; compute : Kf_obs.Histogram.t }
      (** worker-side compute-time histogram, serialized via its
          cumulative buckets so the coordinator can
          [Kf_obs.Histogram.merge] it into the registry *)
  | Shutdown

val encode : msg -> string
(** Complete frame (header + payload + checksum), as written to the
    socket. *)

val decode : string -> msg
(** Inverse of {!encode}; raises {!Corrupt}. *)

val send : Unix.file_descr -> msg -> int
(** Write one frame; returns the frame's byte length (for the
    bytes-sent metrics).  Unix errors propagate. *)

val recv : Unix.file_descr -> msg * int
(** Read one frame; returns the message and the frame's byte length.
    Raises {!Closed} on EOF, {!Corrupt} on damage. *)

val recv_handshake : Unix.file_descr -> msg * int
(** Like {!recv}, but skips any bytes preceding the first frame magic
    (bounded at 1 MiB).  Host-binary module initialisers may print to
    stdout before {!Worker.maybe_run} redirects it, and those bytes
    share the socket with the worker's [Hello]. *)
