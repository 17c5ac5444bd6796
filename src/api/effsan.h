/*===- api/effsan.h - Stable C ABI for EffectiveSan sessions ------- C -----===*
 *
 * Part of the EffectiveSan reproduction. Released under the MIT license.
 *
 *===----------------------------------------------------------------------===*
 *
 * The stable, versioned, extern-"C" face of the sanitizer: everything a
 * foreign language or a shared-library consumer needs to create
 * instance-scoped sanitizer sessions, describe C types to them, allocate
 * typed memory, and run the paper's dynamic checks (type_check,
 * bounds_check, bounds_narrow, bounds_get — Figures 3 and 6).
 *
 *   effsan_options opts;
 *   effsan_options_init(&opts);
 *   opts.policy = EFFSAN_POLICY_FULL;
 *   effsan_session *s = effsan_session_create(&opts);
 *
 *   effsan_type int_ty = effsan_type_primitive(s, EFFSAN_PRIM_INT);
 *   int *p = (int *)effsan_malloc(s, 100 * sizeof(int), int_ty);
 *   effsan_bounds b = effsan_type_check(s, p, int_ty);
 *   effsan_bounds_check(s, p + 5, sizeof(int), b);
 *   effsan_free(s, p);
 *   effsan_session_destroy(s);
 *
 * ABI stability rules:
 *  - new functions may be added; existing signatures never change;
 *  - effsan_options is extended only at the tail, and carries its own
 *    struct_size so old callers keep working against new libraries;
 *  - enum values are never renumbered;
 *  - the minor version bumps on additions, the major version on breaks.
 *
 *===----------------------------------------------------------------------===*/

#ifndef EFFECTIVE_API_EFFSAN_H
#define EFFECTIVE_API_EFFSAN_H

#include <stddef.h>
#include <stdint.h>
#include <stdio.h>

#ifdef __cplusplus
extern "C" {
#endif

/*===--------------------------------------------------------------------===*
 * Versioning
 *===--------------------------------------------------------------------===*/

#define EFFSAN_ABI_VERSION_MAJOR 1
#define EFFSAN_ABI_VERSION_MINOR 9
#define EFFSAN_ABI_VERSION                                                   \
  ((EFFSAN_ABI_VERSION_MAJOR << 16) | EFFSAN_ABI_VERSION_MINOR)

/* The version the library was built as ((major << 16) | minor). */
uint32_t effsan_abi_version(void);

/*===--------------------------------------------------------------------===*
 * Sessions
 *===--------------------------------------------------------------------===*/

/* One sanitizer session (opaque). Sessions are independent: private
 * heap, counters and error sink. */
typedef struct effsan_session effsan_session;

/* An interned dynamic type handle (opaque). Valid for the lifetime of
 * the session that produced it. */
typedef const struct effsan_type_opaque *effsan_type;

/* The session check policy — the paper's Section 6.2 variants. */
typedef enum effsan_policy {
  EFFSAN_POLICY_FULL = 0,        /* type + sub-object bounds checks   */
  EFFSAN_POLICY_BOUNDS_ONLY = 1, /* EffectiveSan-bounds (bounds_get)  */
  EFFSAN_POLICY_TYPE_ONLY = 2,   /* EffectiveSan-type                 */
  EFFSAN_POLICY_COUNT_ONLY = 3,  /* count checks, probe nothing       */
  EFFSAN_POLICY_OFF = 4          /* no checks at all                  */
} effsan_policy;

/* Session construction options. Always initialize with
 * effsan_options_init() before overriding fields, so adding tail fields
 * later cannot break compiled callers. */
typedef struct effsan_options {
  uint32_t struct_size; /* = sizeof(effsan_options); set by _init    */
  uint32_t policy;      /* an effsan_policy value                    */
  int log_errors;       /* nonzero: log reports to log_stream        */
  FILE *log_stream;     /* default stderr                            */
  /* Per-location dedup cap: emit at most this many reports per
   * (kind, types, offset) bucket; 0 = unlimited. Default 1 — each
   * distinct issue is reported once, as in the paper. */
  uint64_t max_reports_per_location;
  uint64_t max_total_reports; /* cap across all locations; 0 = none  */
  uint64_t abort_after;       /* abort after N error events; 0 = no  */
  /* Entries in the session's site-indexed type-check inline cache
   * (since 1.2; rounded up to a power of two, 2-way set-associative
   * since 1.4). 0 disables the fast path — every type_check takes the
   * full layout-probe slow path. Default 1024. */
  uint64_t site_cache_entries;
  /* Blocks cached per (thread, size class) in the allocator's TLS
   * magazine (since 1.4; clamped internally). The steady-state typed
   * malloc/free is then a thread-local pop/push with no locks. 0
   * disables magazines. Default 16. */
  uint64_t magazine_size;
  /* Nonzero: skip rendering report message strings for buckets that
   * are only counted (since 1.4). Error callbacks then receive a NULL
   * message in counting mode; logging mode always renders. Default
   * 0 — behavior unchanged. */
  int32_t defer_error_rendering;
  /* Execution engine for effsan_run_minic (since 1.7; an effsan_engine
   * value; was a zeroed reserved field before 1.7). Default
   * EFFSAN_ENGINE_BYTECODE (= 0) — the direct-threaded VM; select
   * EFFSAN_ENGINE_TREE for the reference tree-walker. Inert for
   * sessions that never run programs. */
  uint32_t engine;
} effsan_options;

/* How a session executes instrumented MiniC programs (since 1.7).
 * Both engines run the same checks against the same runtime and
 * produce identical results, outputs, check counts and error reports
 * (the bytecode differential test suite enforces this); the bytecode
 * VM is simply faster. The tree-walker remains available as the
 * reference oracle. */
typedef enum effsan_engine {
  EFFSAN_ENGINE_BYTECODE = 0, /* dense bytecode, direct-threaded VM   */
  EFFSAN_ENGINE_TREE = 1      /* tree-walking IR interpreter          */
} effsan_engine;

/* Fills *options with the defaults (full policy, logging to stderr). */
void effsan_options_init(effsan_options *options);

/* Creates a session; NULL options means defaults. Returns NULL only on
 * out-of-memory. */
effsan_session *effsan_session_create(const effsan_options *options);

/* Destroys a session and its heap. Pointers it served die with it.
 * No-op for sessions checked out of a pool — those are owned by the
 * pool and die with effsan_pool_destroy(). */
void effsan_session_destroy(effsan_session *session);

/* Recycles a session between tenant requests (since 1.1): rewinds its
 * arena (for pooled sessions, only that shard's slice), clears its
 * counters and reported issues. Every pointer the session ever
 * returned is invalidated and its addresses will be served again; the
 * caller guarantees no live pointers and no concurrent use. Type
 * handles remain valid. */
void effsan_session_reset(effsan_session *session);

/* The session's policy (an effsan_policy value). */
uint32_t effsan_session_policy(const effsan_session *session);

/* Changes the session's policy at run time (since 1.5). The swap is
 * one atomic dispatch-table store: checks racing the change simply run
 * the old tables or the new — never a torn mix. Safe from any thread,
 * including against concurrent checks on the same session (this is how
 * the service layer degrades an overloaded shard without pausing its
 * mutators). An effsan_run_minic reads the policy once, when it starts,
 * so a change during a run takes effect at the next run. */
void effsan_session_set_policy(effsan_session *session, uint32_t policy);

/* The session's execution engine (an effsan_engine value; since 1.7).
 * Fixed at creation — session options for owned sessions, pool options
 * for shards. */
uint32_t effsan_session_engine(const effsan_session *session);

/*===--------------------------------------------------------------------===*
 * Program execution (since 1.7)
 *
 * Compiles a MiniC source buffer with the paper's instrumentation
 * schema — the instrumentation variant is derived from the session's
 * policy — and executes it on the session's engine against the
 * session's runtime: allocations land in the session heap, checks bump
 * the session counters, and errors flow to the session's reporter and
 * callbacks exactly as API-level checks do.
 *===--------------------------------------------------------------------===*/

typedef struct effsan_run_options {
  uint32_t struct_size; /* = sizeof(effsan_run_options); set by _init  */
  uint32_t reserved_;
  uint64_t max_steps;      /* instruction budget; 0 = default (1e8)    */
  uint64_t max_call_depth; /* call-depth limit; 0 = default (4000)     */
  const char *entry;       /* entry function; NULL = "main"            */
  const char *file_name;   /* source name in reports; NULL = "<minic>" */
  /* Receives everything the program's print_* builtins write (chunked;
   * data is valid only during the call and not NUL-terminated). NULL
   * discards the output. */
  void (*output)(const char *data, size_t len, void *user_data);
  void *output_user_data;
} effsan_run_options;

/* Fills *options with the defaults above. */
void effsan_run_options_init(effsan_run_options *options);

/* One program run's outcome. Caller-sized like effsan_heap_stats: set
 * struct_size to sizeof(effsan_run_result) before the call and the
 * library fills exactly the prefix you declared (fields added after
 * your build read as zero). */
typedef struct effsan_run_result {
  uint32_t struct_size; /* set by the CALLER before the call           */
  /* Nonzero when the program ran to completion. The program may still
   * have *reported* type/memory errors — like the paper's logging
   * mode, detected errors do not stop execution; a zero here means a
   * VM-level fault (see fault below). */
  uint32_t ok;
  int64_t exit_code;        /* the entry function's return value       */
  uint64_t steps;           /* instructions executed (engine-specific:
                             * a fused bytecode check+access counts 1) */
  uint64_t type_checks;     /* dynamic executed-check counts ...       */
  uint64_t bounds_gets;
  uint64_t bounds_checks;
  uint64_t bounds_narrows;  /* ... (the Figure 7 columns)              */
  uint64_t issues_reported; /* distinct issues this run reported       */
  /* VM fault description when !ok, or the first compile diagnostic
   * when effsan_run_minic returned 0; NUL-terminated, truncated to
   * fit. Empty on success. */
  char fault[120];
} effsan_run_result;

/* Compiles and runs `source`. NULL options means defaults; `out` may
 * be NULL when only the side effects matter. Returns nonzero when the
 * source compiled and a run was attempted (inspect out->ok for the
 * run's fate), 0 on a compile error (out->fault then carries the first
 * diagnostic). The compiled program is not retained — each call
 * compiles afresh; globals are (re)allocated per run. The session's
 * policy is read once per call and selects both the instrumentation
 * and what the run's checks do. */
int effsan_run_minic(effsan_session *session, const char *source,
                     const effsan_run_options *options,
                     effsan_run_result *out);

/*===--------------------------------------------------------------------===*
 * Session pools (since 1.1)
 *
 * A pool owns N sanitizer shard sessions over ONE shared low-fat arena
 * carved into per-shard sub-arenas: worker threads check out a shard
 * each and allocate/check without shared locks, while the base/size
 * metadata arithmetic stays valid across shards. Error events go
 * through a lock-free ring to one central reporter; call
 * effsan_pool_drain() (one thread at a time) to publish them.
 *===--------------------------------------------------------------------===*/

typedef struct effsan_pool effsan_pool;

typedef struct effsan_pool_options {
  uint32_t struct_size; /* = sizeof(effsan_pool_options); set by _init */
  uint32_t shards;      /* shard count; 0 = one per hardware thread    */
  uint32_t policy;      /* an effsan_policy value                      */
  int log_errors;       /* nonzero: central reporter logs to stream    */
  FILE *log_stream;     /* default stderr                              */
  uint64_t max_reports_per_location; /* central dedup cap; default 1   */
  uint64_t max_total_reports;        /* central total cap; 0 = none    */
  uint64_t error_ring_capacity;      /* ring slots; 0 = default (4096) */
  /* Per-shard type-check inline-cache entries (since 1.2; power of
   * two, 2-way set-associative since 1.4; 0 disables the fast path on
   * every shard). Default 1024. */
  uint64_t site_cache_entries;
  /* Blocks cached per (thread, size class) in the allocator's TLS
   * magazine (since 1.4); 0 disables. Default 16. */
  uint64_t magazine_size;
  /* Nonzero: when a worker shard's slice of a size-class region runs
   * dry, refill from a sibling shard's slice instead of falling back
   * to the (locked, legacy-pointer) system allocator (since 1.4).
   * base(p)/size(p) stay exact for stolen blocks. Caveat: the
   * effsan_session_reset contract for a shard then extends to blocks
   * sibling shards borrowed from its slice. Default 0. */
  int32_t enable_work_stealing;
  /* Nonzero: skip rendering report messages for counted-only buckets
   * (since 1.4) — CountOnly-policy pools then drain the error ring
   * without building a string per issue. Default 0. */
  int32_t defer_error_rendering;
  /* --- added in ABI 1.7 (older callers' shorter struct_size keeps
   *     the defaults for everything below) --- */
  /* Execution engine for effsan_run_minic on every shard session (an
   * effsan_engine value; default EFFSAN_ENGINE_BYTECODE). */
  uint32_t engine;
  uint32_t reserved_;
} effsan_pool_options;

/* Fills *options with the defaults (full policy, auto shard count,
 * logging to stderr). */
void effsan_pool_options_init(effsan_pool_options *options);

/* Creates a pool; NULL options means defaults. Returns NULL only on
 * out-of-memory. */
effsan_pool *effsan_pool_create(const effsan_pool_options *options);

/* Drains pending error events, then destroys the pool, its sessions
 * and the shared arena. Pointers served by any shard die with it. */
void effsan_pool_destroy(effsan_pool *pool);

/* Number of shard sessions in the pool. */
uint32_t effsan_pool_num_shards(const effsan_pool *pool);

/* Thread-affine checkout: the calling thread is bound to one shard on
 * first use (round-robin) and always receives that shard again. The
 * returned session is owned by the pool — do not destroy it. */
effsan_session *effsan_pool_checkout(effsan_pool *pool);

/* Direct access to shard `index` (supervisor use; NULL if out of
 * range). */
effsan_session *effsan_pool_shard(effsan_pool *pool, uint32_t index);

/* Delivers every queued error event to the central reporter; returns
 * the number delivered. Call from one thread at a time. */
uint64_t effsan_pool_drain(effsan_pool *pool);

/*===--------------------------------------------------------------------===*
 * Type construction
 *===--------------------------------------------------------------------===*/

typedef enum effsan_prim {
  EFFSAN_PRIM_VOID = 0,
  EFFSAN_PRIM_BOOL = 1,
  EFFSAN_PRIM_CHAR = 2,
  EFFSAN_PRIM_SCHAR = 3,
  EFFSAN_PRIM_UCHAR = 4,
  EFFSAN_PRIM_SHORT = 5,
  EFFSAN_PRIM_USHORT = 6,
  EFFSAN_PRIM_INT = 7,
  EFFSAN_PRIM_UINT = 8,
  EFFSAN_PRIM_LONG = 9,
  EFFSAN_PRIM_ULONG = 10,
  EFFSAN_PRIM_LONGLONG = 11,
  EFFSAN_PRIM_ULONGLONG = 12,
  EFFSAN_PRIM_FLOAT = 13,
  EFFSAN_PRIM_DOUBLE = 14,
  EFFSAN_PRIM_LONGDOUBLE = 15
} effsan_prim;

/* Primitive, pointer and array type handles (interned per session's
 * type context; handle equality is dynamic type equality). */
effsan_type effsan_type_primitive(effsan_session *session, effsan_prim kind);
effsan_type effsan_type_pointer(effsan_session *session, effsan_type pointee);
effsan_type effsan_type_array(effsan_session *session, effsan_type element,
                              uint64_t count);

/* Struct types are built field by field; offsets follow C layout rules:
 *
 *   effsan_struct_builder *b = effsan_struct_begin(s, "account");
 *   effsan_struct_field(b, "number", effsan_type_array(s, int_ty, 8));
 *   effsan_struct_field(b, "balance", float_ty);
 *   effsan_type account_ty = effsan_struct_end(b);   // frees b
 */
typedef struct effsan_struct_builder effsan_struct_builder;
effsan_struct_builder *effsan_struct_begin(effsan_session *session,
                                           const char *tag);
void effsan_struct_field(effsan_struct_builder *builder, const char *name,
                         effsan_type type);
effsan_type effsan_struct_end(effsan_struct_builder *builder);

/* Union types (since 1.2): same builder protocol as structs — add
 * members with effsan_struct_field (every member sits at offset zero;
 * size/alignment follow C union rules), finish with effsan_struct_end.
 * Checks against a union-typed object accept any member's static type
 * at the union's offset, preferring the member with the widest
 * bounds. */
effsan_struct_builder *effsan_union_begin(effsan_session *session,
                                          const char *tag);

/* Appends a trailing flexible array member of element type `element`
 * to a *struct* builder (since 1.2). Must be the last field added; the
 * member is represented as element[1] per the paper's convention, and
 * the layout's normalized-offset domain extends so interior pointers
 * into any tail element type-check like pointers into the first.
 * No-op on union builders. */
void effsan_struct_flexible_array(effsan_struct_builder *builder,
                                  const char *name, effsan_type element);

/* Renders the type spelling ("struct account", "int[8]") into buffer
 * (always NUL-terminated); returns buffer. */
const char *effsan_type_name(effsan_type type, char *buffer, size_t size);

/* sizeof the type in bytes (0 for void/function/incomplete types). */
uint64_t effsan_type_size(effsan_type type);

/* The dynamic (allocation) type of ptr's object, or NULL for legacy /
 * unknown pointers — the introspection surface. */
effsan_type effsan_type_of(effsan_session *session, const void *ptr);

/*===--------------------------------------------------------------------===*
 * Typed allocation (the paper's type_malloc family, Figure 6)
 *===--------------------------------------------------------------------===*/

/* type may be NULL for untyped (wide-bounds) allocations. */
void *effsan_malloc(effsan_session *session, size_t size, effsan_type type);
void *effsan_calloc(effsan_session *session, size_t count, size_t size,
                    effsan_type type);
void *effsan_realloc(effsan_session *session, void *ptr, size_t size,
                     effsan_type type);
void effsan_free(effsan_session *session, void *ptr);

/*===--------------------------------------------------------------------===*
 * Typed stack & global objects (since 1.8)
 *
 * The low-fat STACK and GLOBAL object kinds of the paper's Section 5:
 * frame-scoped typed stack slots with escape-aware use-after-return
 * detection, and module-load global registration. Stack objects live
 * in a per-thread pool with strict frame discipline; when a frame
 * leaves, its objects' METAs are rebound to the STACK-FREE type, and
 * objects flagged as escaping are additionally parked in a bounded
 * FIFO quarantine that delays address reuse — a dangling pointer into
 * the dead frame then faults as EFFSAN_ERROR_STACK_USE_AFTER_RETURN
 * with full site attribution, instead of silently aliasing whatever
 * reused the slot. Global objects are never freed (until session
 * reset) and keep base(p)/size(p) O(1) like any low-fat allocation.
 *===--------------------------------------------------------------------===*/

/* A frame marker, as returned by effsan_stack_enter. */
typedef uint64_t effsan_stack_mark;

/* Opens a stack frame on the calling thread and returns its marker.
 * Frames are per (thread, session) and strictly nested: leave frames
 * in reverse order of entry. */
effsan_stack_mark effsan_stack_enter(effsan_session *session);

/* Closes the frame `mark` (and any frames nested inside it that were
 * not left explicitly): every stack object the frame allocated is
 * rebound to STACK-FREE; escaping objects enter the use-after-return
 * quarantine, the rest return to the heap immediately. */
void effsan_stack_leave(effsan_session *session, effsan_stack_mark mark);

/* Allocates one typed stack object in the current frame. `type` may be
 * NULL for an untyped (wide-bounds) slot. Nonzero `escapes` marks an
 * address-taken slot — the caller's static analysis saw its address
 * stored, passed or returned — arming the quarantine delay for it.
 * The memory is NOT zeroed (it is stack memory). */
void *effsan_stack_alloc_typed(effsan_session *session, size_t size,
                               effsan_type type, int escapes);

/* One global object description for effsan_globals_register. */
typedef struct effsan_global_def {
  const char *name;  /* registry name (copied); may be NULL           */
  uint64_t size;     /* object size in bytes                          */
  effsan_type type;  /* allocation type; NULL = untyped (wide bounds) */
} effsan_global_def;

/* Module-load registration of `count` global objects — the
 * module-ctor analogue of effsan_site_table_register. Each definition
 * is allocated zero-initialized out of the session's low-fat global
 * region with a full META {type, size} header, so global
 * out-of-bounds and type-confusion errors report exactly like heap
 * errors. addresses_out (required, `count` slots) receives the
 * objects' addresses in definition order. Globals live until the
 * session is destroyed or reset. For sessions checked out of a pool
 * the objects land on that shard's slice. Returns the number of
 * globals registered (== count), or 0 when defs/addresses_out is NULL
 * or count is 0. */
uint32_t effsan_globals_register(effsan_session *session,
                                 const effsan_global_def *defs,
                                 uint32_t count, void **addresses_out);

/*===--------------------------------------------------------------------===*
 * Dynamic checks (Figures 3 and 6), dispatched by the session policy
 *===--------------------------------------------------------------------===*/

/* A bounds value [lo, hi). Wide bounds are [0, UINTPTR_MAX). */
typedef struct effsan_bounds {
  uintptr_t lo;
  uintptr_t hi;
} effsan_bounds;

/* type_check: verifies ptr addresses a (sub-)object of static_type and
 * returns the sub-object bounds (wide on error/legacy). */
effsan_bounds effsan_type_check(effsan_session *session, const void *ptr,
                                effsan_type static_type);

/* bounds_get: allocation bounds without a type check (the
 * EffectiveSan-bounds primitive). */
effsan_bounds effsan_bounds_get(effsan_session *session, const void *ptr);

/* bounds_check: report if the size-byte access at ptr leaves bounds. */
void effsan_bounds_check(effsan_session *session, const void *ptr,
                         size_t size, effsan_bounds bounds);

/* bounds_narrow: intersect bounds with the field at [field, field+size). */
effsan_bounds effsan_bounds_narrow(effsan_session *session,
                                   effsan_bounds bounds, const void *field,
                                   size_t size);

/*===--------------------------------------------------------------------===*
 * Counters and error reporting
 *===--------------------------------------------------------------------===*/

typedef struct effsan_counters {
  uint64_t type_checks;
  uint64_t legacy_type_checks;
  uint64_t bounds_checks;
  uint64_t bounds_narrows;
  uint64_t bounds_gets;
  uint64_t issues_found;       /* distinct issues (Figure 7 buckets)  */
  uint64_t error_events;       /* raw error events                    */
  uint64_t reports_suppressed; /* events muted by the dedup caps      */
} effsan_counters;

/* Snapshots the session's check counters and issue counts. For pool
 * shards the check counts are per-shard, but issues_found /
 * error_events / reports_suppressed read 0: pooled error events are
 * accounted centrally — use effsan_pool_get_counters for those. */
void effsan_get_counters(const effsan_session *session,
                         effsan_counters *out);

/* Pool-wide merged counters (since 1.1): check counts summed over all
 * shards; issue/event counts from the central reporter (drains
 * first). */
void effsan_pool_get_counters(effsan_pool *pool, effsan_counters *out);

/* Type-check inline-cache statistics (since 1.2): checks resolved by
 * the session's site-indexed fast path vs. the full layout-probe slow
 * path. hits + misses + legacy_type_checks == type_checks under
 * full/type-only policies. New functions rather than new
 * effsan_counters fields: that struct is caller-allocated without a
 * struct_size, so it can never grow. */
uint64_t effsan_type_check_cache_hits(const effsan_session *session);
uint64_t effsan_type_check_cache_misses(const effsan_session *session);

/*===--------------------------------------------------------------------===*
 * Allocator statistics (since 1.4)
 *
 * The low-fat allocator's own counters: footprint, quarantine, and the
 * lock-free fast-path telemetry (TLS-magazine hits/refills, shard work
 * steals, slice-exhaustion legacy fallbacks). Unlike effsan_counters,
 * this struct carries a caller-set struct_size so it CAN grow: set it
 * to sizeof(effsan_heap_stats) before the call and the library fills
 * exactly the prefix you declared. Fields added after the library was
 * built read as zero, never as uninitialized memory.
 *===--------------------------------------------------------------------===*/

typedef struct effsan_heap_stats {
  uint32_t struct_size; /* set by the CALLER before the call          */
  uint32_t reserved_;
  uint64_t block_bytes_in_use;      /* size-class-rounded live bytes  */
  uint64_t peak_block_bytes_in_use;
  uint64_t num_allocs;
  uint64_t num_frees;
  uint64_t num_legacy_allocs;       /* system-allocator fallbacks     */
  uint64_t quarantined_bytes;       /* incl. unflushed thread batches */
  uint64_t magazine_hits;           /* allocs served by the TLS cache */
  uint64_t magazine_refills;        /* batched refills from the arena */
  uint64_t steals;                  /* blocks taken from sibling shards */
  uint64_t exhaust_fallbacks;       /* legacy allocs due to a dry slice */
} effsan_heap_stats;

/* Snapshots the session's allocator statistics. For sessions checked
 * out of a pool the numbers are per-shard (the shard's slice of the
 * shared arena); steals are attributed to the requesting shard. */
void effsan_get_heap_stats(const effsan_session *session,
                           effsan_heap_stats *out);

/* Pool-wide allocator statistics, summed over all shards. */
void effsan_pool_get_heap_stats(effsan_pool *pool,
                                effsan_heap_stats *out);

/* Typed stack & global object statistics (since 1.8). Caller-sized
 * like effsan_heap_stats: set struct_size to
 * sizeof(effsan_object_stats) before the call and the library fills
 * exactly the prefix you declared — the struct only ever grows at the
 * tail, and fields newer than your build read as zero. */
typedef struct effsan_object_stats {
  uint32_t struct_size; /* set by the CALLER before the call          */
  uint32_t reserved_;
  uint64_t stack_allocs;   /* typed stack objects ever allocated      */
  uint64_t stack_frames;   /* frames released                         */
  uint64_t stack_retired;  /* escaping slots retired via quarantine   */
  uint64_t global_objects; /* globals currently registered            */
  uint64_t global_bytes;   /* payload bytes across those globals      */
} effsan_object_stats;

/* Snapshots the session's stack/global object statistics, aggregated
 * across every thread that used the session. */
void effsan_get_object_stats(const effsan_session *session,
                             effsan_object_stats *out);

typedef enum effsan_error_kind {
  EFFSAN_ERROR_TYPE = 0,
  EFFSAN_ERROR_BOUNDS = 1,
  EFFSAN_ERROR_USE_AFTER_FREE = 2,
  EFFSAN_ERROR_DOUBLE_FREE = 3,
  /* Use of a typed stack object after its frame returned (since 1.8). */
  EFFSAN_ERROR_STACK_USE_AFTER_RETURN = 4,
  /* An allocation the program requested could not be satisfied — heap
   * OOM or an induced exhaustion fault (since 1.9). The failing
   * allocation function returns NULL after reporting this; execution
   * engines surface the null to the program rather than crashing. */
  EFFSAN_ERROR_RESOURCE_EXHAUSTED = 5
} effsan_error_kind;

/*===--------------------------------------------------------------------===*
 * Site attribution (since 1.3)
 *
 * A *site* is one static check. Instrumented modules number their
 * checks densely; registering the module's site table with a session
 * rebases those local ids onto the session's global id space and
 * returns the base. Error reports then carry the source location,
 * function and static type of the erring check (see
 * docs/REPORT_FORMAT.md), errors deduplicate per site, and per-site
 * error counters become queryable.
 *===--------------------------------------------------------------------===*/

/* "No site": the null site id. */
#define EFFSAN_NO_SITE 0xffffffffu

/* What a site checks. Values are stable. */
typedef enum effsan_check_kind {
  EFFSAN_CHECK_TYPE = 0,          /* type_check                        */
  EFFSAN_CHECK_BOUNDS_GET = 1,    /* bounds_get                        */
  EFFSAN_CHECK_BOUNDS = 2,        /* bounds_check                      */
  EFFSAN_CHECK_BOUNDS_NARROW = 3  /* bounds_narrow                     */
} effsan_check_kind;

/* One site's description (registration input). The strings are copied
 * by effsan_site_table_register; the caller may free them afterwards. */
typedef struct effsan_site_info {
  uint32_t line;            /* 1-based; 0 = unknown                    */
  uint32_t column;          /* 1-based; 0 = unknown                    */
  uint32_t kind;            /* an effsan_check_kind value              */
  const char *function;     /* enclosing function; may be NULL         */
  effsan_type static_type;  /* checked-against type; may be NULL       */
} effsan_site_info;

/* Registers `count` site descriptions for source file `file` with the
 * session and returns the base id they were rebased to: site i of the
 * table becomes global site (base + i), which is the id to pass as a
 * check's site and the id reported back in effsan_error_v2. For
 * sessions checked out of a pool the registration is pool-wide — any
 * shard's errors resolve against it. Returns EFFSAN_NO_SITE when
 * `sites` is NULL or `count` is 0. */
uint32_t effsan_site_table_register(effsan_session *session,
                                    const char *file,
                                    const effsan_site_info *sites,
                                    uint32_t count);

/* Error events recorded at (rebased) site `site` so far. Counts every
 * event, including those muted by the report caps. Pool shards report
 * centrally, so their session-level count reads 0 — use
 * effsan_pool_site_error_events for pooled sessions. */
uint64_t effsan_site_error_events(const effsan_session *session,
                                  uint32_t site);

/* Pool-wide per-site error events (drains the ring first). */
uint64_t effsan_pool_site_error_events(effsan_pool *pool, uint32_t site);

/* Site-carrying check variants (since 1.3): identical to
 * effsan_type_check / effsan_bounds_get / effsan_bounds_check, with the
 * check's registered site identity attached — errors they report are
 * attributed to that site's source location and deduplicate per site.
 * Pass EFFSAN_NO_SITE to behave exactly like the unsited originals. */
effsan_bounds effsan_type_check_at(effsan_session *session, const void *ptr,
                                   effsan_type static_type, uint32_t site);
effsan_bounds effsan_bounds_get_at(effsan_session *session, const void *ptr,
                                   uint32_t site);
void effsan_bounds_check_at(effsan_session *session, const void *ptr,
                            size_t size, effsan_bounds bounds,
                            uint32_t site);

typedef struct effsan_error {
  uint32_t kind;       /* an effsan_error_kind value                 */
  const void *pointer; /* the offending pointer                      */
  int64_t offset;      /* byte offset within the allocation          */
  const char *message; /* rendered report; valid during the callback */
} effsan_error;

/* Invoked once per emitted report (after dedup caps), from the erring
 * thread. Must not call back into the same session's reporter. */
typedef void (*effsan_error_callback)(const effsan_error *error,
                                      void *user_data);

/* Installs (or, with NULL, removes) the session error sink. For pool
 * shards this sink never fires (their events are drained centrally);
 * use effsan_pool_set_error_callback instead. */
void effsan_set_error_callback(effsan_session *session,
                               effsan_error_callback callback,
                               void *user_data);

/* Installs (or, with NULL, removes) the pool's central error sink —
 * fired once per emitted report (since 1.1). Invocations are
 * serialized by the central reporter but NOT thread-affine: they
 * normally come from the draining thread, yet when the error ring is
 * momentarily full the erring worker reports directly and the
 * callback runs on that worker. Keep the callback thread-agnostic. */
void effsan_pool_set_error_callback(effsan_pool *pool,
                                    effsan_error_callback callback,
                                    void *user_data);

/* The site-attributed error report (since 1.3). All pointers are valid
 * only during the callback; type handles live as long as the session.
 * Unattributed errors (no registered site) carry EFFSAN_NO_SITE /
 * NULL / 0 in the site fields — the kind/pointer/offset/message
 * fields are always filled, exactly as in effsan_error. */
typedef struct effsan_error_v2 {
  uint32_t kind;            /* an effsan_error_kind value              */
  const void *pointer;      /* the offending pointer                   */
  int64_t offset;           /* byte offset within the allocation       */
  const char *message;      /* rendered report line                    */
  uint32_t site;            /* erring check's site; EFFSAN_NO_SITE     */
  const char *file;         /* source file, or NULL                    */
  uint32_t line;            /* 1-based; 0 = unknown                    */
  uint32_t column;          /* 1-based; 0 = unknown                    */
  const char *function;     /* enclosing function, or NULL             */
  uint32_t check_kind;      /* an effsan_check_kind value              */
  effsan_type static_type;  /* type the program used; may be NULL      */
  effsan_type alloc_type;   /* object's allocation type; may be NULL   */
} effsan_error_v2;

/* Invoked once per emitted report (after dedup caps), from the erring
 * thread. Must not call back into the same session's reporter. */
typedef void (*effsan_error_callback_v2)(const effsan_error_v2 *error,
                                         void *user_data);

/* Installs (or, with NULL, removes) the site-aware session error sink
 * (since 1.3). Independent of the v1 sink: when both are installed,
 * both fire for every emitted report — a 1.2 caller linked against
 * this library keeps its v1 callback behavior unchanged. */
void effsan_set_error_callback_v2(effsan_session *session,
                                  effsan_error_callback_v2 callback,
                                  void *user_data);

/* The pool-central equivalent (since 1.3; see
 * effsan_pool_set_error_callback for the threading contract). */
void effsan_pool_set_error_callback_v2(effsan_pool *pool,
                                       effsan_error_callback_v2 callback,
                                       void *user_data);

/*===--------------------------------------------------------------------===*
 * Service mode (since 1.5)
 *
 * A service is a supervised session pool for long-lived multi-tenant
 * embeddings. On top of the pool it adds:
 *
 *   - a background drain thread: error events are popped from the
 *     ring, attributed to the owning tenant and published centrally
 *     every drain interval — embedders never call a drain function;
 *   - tenants: metered clients bound 1:1 to pool shards, with byte /
 *     error / check budgets enforced at checkout time (an exhausted
 *     budget refuses the checkout and evicts the tenant; its shard is
 *     recycled for the next tenant once all checkouts are returned);
 *   - adaptive degradation: under sustained per-shard pressure the
 *     service walks a shard's policy down FULL -> BOUNDS_ONLY ->
 *     COUNT_ONLY and restores it when the load subsides (hysteresis
 *     in both directions);
 *   - telemetry: service-wide stats, per-tenant stats, and a periodic
 *     JSON snapshot hook.
 *===--------------------------------------------------------------------===*/

typedef struct effsan_service effsan_service;

/* A tenant handle. Handles embed a generation, so a handle kept past
 * close/evict is detected stale rather than aliasing the shard's next
 * occupant. */
typedef uint64_t effsan_tenant;

/* "No tenant": returned when open fails (all shards occupied). */
#define EFFSAN_NO_TENANT (~(uint64_t)0)

typedef struct effsan_service_options {
  uint32_t struct_size; /* = sizeof(effsan_service_options); by _init */
  uint32_t shards;      /* = max tenants; 0 = one per hardware thread */
  uint32_t policy;      /* base effsan_policy for every shard         */
  int log_errors;       /* nonzero: central reporter logs to stream   */
  FILE *log_stream;     /* default stderr                             */
  uint64_t max_reports_per_location; /* central dedup cap; default 1  */
  uint64_t max_total_reports;        /* central total cap; 0 = none   */
  uint64_t error_ring_capacity;      /* ring slots; 0 = default       */
  uint64_t site_cache_entries;       /* per-shard; default 1024       */
  /* Background drain period in microseconds; default 2000. */
  uint64_t drain_interval_usec;
  /* Pool-wide error-event budget enforced by the drain thread: once
   * the cumulative drained event count crosses it the process aborts
   * (the single-session abort_after contract, batched). 0 = never. */
  uint64_t abort_after;
  /* Nonzero (default): enable adaptive per-shard policy degradation. */
  int32_t enable_governor;
  uint32_t reserved_;
  /* Governor tuning; 0 keeps the default for that knob. A shard is
   * "pressured" when any per-tick delta reaches its high mark, and
   * "calm" when every delta is below mark * restore_fraction; between
   * the two the state holds (dead band). degrade_ticks consecutive
   * pressured ticks shed one policy level, restore_ticks consecutive
   * calm ticks win one back. */
  uint64_t check_rate_high;    /* checks per tick; default 2000000    */
  uint64_t alloc_rate_high;    /* allocs per tick; default 200000     */
  double ring_occupancy_high;  /* 0..1; default 0.5                   */
  double restore_fraction;     /* 0..1; default 0.5                   */
  uint32_t degrade_ticks;      /* default 2                           */
  uint32_t restore_ticks;      /* default 4                           */
  /* --- added in ABI 1.6 (older callers' shorter struct_size keeps
   *     the defaults for everything below) --- */
  /* EWMA window (in ticks) smoothing the governor's pressure signals
   * before the thresholds above are evaluated; 0 or 1 = raw per-tick
   * deltas (the pre-1.6 behaviour). */
  uint32_t governor_ewma_ticks;
  uint32_t reserved2_;
  /* --- added in ABI 1.9 (zeroed tail = the defaults below) --- */
  /* Push retries (roughly doubling backoff) before the full-ring
   * policy applies to an overflowed error event; 0 = default (3). */
  uint32_t ring_retry_attempts;
  /* Nonzero: after the retry budget, DROP the event with the loss
   * accounted in ring_drops rather than delivering it through the
   * central reporter's lock (the default, which never loses events). */
  int32_t drop_on_ring_full;
  /* Nonzero: run WITHOUT the self-healing watchdog (default 0: the
   * watchdog samples drain-thread liveness and restarts it on death). */
  int32_t disable_watchdog;
  /* Dead drain-thread restarts before the service latches CRITICAL and
   * escalates once through the snapshot hook; 0 = default (3). */
  uint32_t max_drain_restarts;
  /* Watchdog check period in microseconds; 0 = 4x drain_interval_usec. */
  uint64_t watchdog_interval_usec;
} effsan_service_options;

/* Fills *options with the defaults above. */
void effsan_service_options_init(effsan_service_options *options);

/* Creates a service (pool + drain thread); NULL options means
 * defaults. Returns NULL only on out-of-memory. */
effsan_service *effsan_service_create(const effsan_service_options *options);

/* Stops the drain thread (after a final drain) and destroys the pool.
 * All checkouts must have been released. */
void effsan_service_destroy(effsan_service *service);

uint32_t effsan_service_num_shards(const effsan_service *service);

/* Per-tenant budgets; 0 = unlimited. max_alloc_bytes meters the
 * tenant's LIVE heap footprint; the other two are cumulative since
 * open. Always initialize with effsan_tenant_quota_init(). */
typedef struct effsan_tenant_quota {
  uint32_t struct_size; /* = sizeof(effsan_tenant_quota); by _init    */
  uint32_t reserved_;
  uint64_t max_alloc_bytes;
  uint64_t max_error_events;
  uint64_t max_checks;
} effsan_tenant_quota;

void effsan_tenant_quota_init(effsan_tenant_quota *quota);

/* Opens a tenant on a free shard. `name` (copied; may be NULL) labels
 * the tenant in snapshots; NULL quota means unlimited. Returns
 * EFFSAN_NO_TENANT when every shard is occupied. */
effsan_tenant effsan_service_tenant_open(effsan_service *service,
                                         const char *name,
                                         const effsan_tenant_quota *quota);

/* Cooperative close: refuses new checkouts immediately and recycles
 * the shard once the last outstanding checkout is released (waits for
 * one drain tick, so with none outstanding the shard is recycled on
 * return). Returns 0 for a stale handle, nonzero otherwise. */
int effsan_service_tenant_close(effsan_service *service,
                                effsan_tenant tenant);

/* The quota gate. On success returns the tenant's shard session (owned
 * by the service — do not destroy or reset it) and counts one
 * outstanding checkout; pair every success with
 * effsan_service_release. Returns NULL when the handle is stale, the
 * tenant is evicted, or a budget is exhausted — the budget trip also
 * evicts the tenant. */
effsan_session *effsan_service_checkout(effsan_service *service,
                                        effsan_tenant tenant);

/* Returns one checkout. Returns 0 when the tenant has none
 * outstanding (or the handle is stale), nonzero otherwise. */
int effsan_service_release(effsan_service *service, effsan_tenant tenant);

/* Replaces / reads the tenant's quota. 0 on a stale handle. */
int effsan_service_quota_set(effsan_service *service, effsan_tenant tenant,
                             const effsan_tenant_quota *quota);
int effsan_service_quota_get(effsan_service *service, effsan_tenant tenant,
                             effsan_tenant_quota *out);

typedef enum effsan_tenant_status {
  EFFSAN_TENANT_CLOSED = 0,  /* slot free / handle stale              */
  EFFSAN_TENANT_OPEN = 1,    /* serving checkouts                     */
  EFFSAN_TENANT_EVICTED = 2  /* refusing checkouts; reset pending     */
} effsan_tenant_status;

typedef enum effsan_evict_reason {
  EFFSAN_EVICT_NONE = 0,
  EFFSAN_EVICT_ALLOC_BYTES = 1,
  EFFSAN_EVICT_ERROR_EVENTS = 2,
  EFFSAN_EVICT_CHECKS = 3,
  EFFSAN_EVICT_EXPLICIT = 4
} effsan_evict_reason;

/* Per-tenant accounting. Caller-sized like effsan_heap_stats: set
 * struct_size to sizeof(effsan_tenant_stats) before the call and the
 * library fills exactly the prefix you declared (fields added after
 * your build read as zero). */
typedef struct effsan_tenant_stats {
  uint32_t struct_size;      /* set by the CALLER before the call     */
  uint32_t status;           /* an effsan_tenant_status value         */
  uint32_t shard;            /* the shard the tenant is bound to      */
  uint32_t policy;           /* shard's CURRENT (possibly degraded)
                              * effsan_policy                         */
  uint32_t evict_reason;     /* an effsan_evict_reason value          */
  uint32_t reserved_;
  uint64_t checks;           /* cumulative since open                 */
  uint64_t alloc_bytes;      /* live block bytes on the shard         */
  uint64_t error_events;     /* drainer-attributed error events       */
  uint64_t checkouts_granted;
  uint64_t checkouts_refused;
  uint64_t checkouts_outstanding;
} effsan_tenant_stats;

/* Snapshots one tenant's accounting. Returns 0 for a stale handle
 * (out is untouched), nonzero on success. */
int effsan_service_tenant_stats(effsan_service *service,
                                effsan_tenant tenant,
                                effsan_tenant_stats *out);

/* Service-wide counters. Caller-sized prefix contract, as above. */
typedef struct effsan_service_stats {
  uint32_t struct_size;      /* set by the CALLER before the call     */
  uint32_t reserved_;
  uint64_t tenants_open;     /* occupied slots (open or evicted)      */
  uint64_t tenants_opened_total;
  uint64_t tenants_evicted;  /* quota trips + explicit closes         */
  uint64_t tenants_closed;   /* slots fully recycled                  */
  uint64_t checkouts_granted;
  uint64_t checkouts_refused;
  uint64_t drain_ticks;
  uint64_t drained_events;
  uint64_t ring_overflows;
  uint64_t policy_degrades;
  uint64_t policy_restores;
  uint64_t issues_found;     /* central reporter's distinct issues    */
  uint64_t snapshots_emitted;
  /* --- added in ABI 1.6 --- */
  uint64_t snapshots_skipped; /* dirty-flag skipped emissions         */
  /* --- added in ABI 1.9 --- */
  uint64_t ring_fallbacks;   /* overflowed events delivered via the
                              * locked central fallback (no loss)     */
  uint64_t ring_drops;       /* overflowed events dropped (opt-in
                              * accounted loss; see drop_on_ring_full)*/
  uint64_t drain_restarts;   /* dead drain threads the watchdog
                              * restarted                             */
  uint64_t watchdog_checks;  /* watchdog liveness checks performed    */
  uint32_t health;           /* an effsan_health value                */
  uint32_t reserved2_;
} effsan_service_stats;

void effsan_service_get_stats(effsan_service *service,
                              effsan_service_stats *out);

/* Service health, as surfaced in stats, snapshots and metrics (since
 * 1.9). HEALTHY: full coverage, no failures. DEGRADED: still serving,
 * with reduced coverage or accounted loss — the governor steered an
 * occupied shard below the base policy, error events were dropped, the
 * drain thread was restarted, or it is wedged inside one tick.
 * CRITICAL (latched): the drain-restart budget is exhausted or the
 * abort threshold fired. */
typedef enum effsan_health {
  EFFSAN_HEALTH_HEALTHY = 0,
  EFFSAN_HEALTH_DEGRADED = 1,
  EFFSAN_HEALTH_CRITICAL = 2
} effsan_health;

/* The service's current health (an effsan_health value; since 1.9). */
uint32_t effsan_service_health(effsan_service *service);

/* effsan_service_checkout with a caller-side backoff hint (since 1.9).
 * On refusal *retry_after_usec (if non-NULL) receives the suggested
 * wait in microseconds before retrying: about one drain interval while
 * the handle still names an occupied slot (an eviction's shard reset
 * is in flight, or a raised quota would clear the refusal), 0 when the
 * handle is stale and retrying is pointless. On success the hint is
 * 0. */
effsan_session *
effsan_service_checkout_hint(effsan_service *service, effsan_tenant tenant,
                             uint64_t *retry_after_usec);

/* Forces one full drain tick (drain + quota bookkeeping + governor)
 * and waits for it to complete; returns the number of error events
 * that tick drained. Deterministic alternative to waiting out the
 * drain interval. */
uint64_t effsan_service_tick(effsan_service *service);

/* Replaces / reads the background drain period (microseconds; 0 is
 * clamped to the default). Takes effect from the next wakeup. */
void effsan_service_set_drain_interval(effsan_service *service,
                                       uint64_t micros);
uint64_t effsan_service_drain_interval(effsan_service *service);

/* Invoked from the drain thread with a JSON document describing the
 * service and every occupied tenant (docs/SERVICE.md#telemetry). The
 * string is valid only during the call. The hook must not call back
 * into waiting service functions (tick, tenant_close) — deadlock. */
typedef void (*effsan_snapshot_hook)(const char *json, void *user_data);

/* Installs (or, with NULL, removes) the snapshot hook; it fires every
 * `every_ticks` completed drain ticks (0 = never). */
void effsan_service_set_snapshot_hook(effsan_service *service,
                                      effsan_snapshot_hook hook,
                                      void *user_data,
                                      uint32_t every_ticks);

/* Central error sinks, as effsan_pool_set_error_callback /
 * _v2 — fired by the drain thread (or, on a momentarily full ring, the
 * erring worker). */
void effsan_service_set_error_callback(effsan_service *service,
                                       effsan_error_callback callback,
                                       void *user_data);
void effsan_service_set_error_callback_v2(effsan_service *service,
                                          effsan_error_callback_v2 callback,
                                          void *user_data);

/*===--------------------------------------------------------------------===*
 * Resilience / fault injection (since 1.9)
 *
 * Deterministic, seedable fault injection over the named fault points
 * compiled into the runtime's hot layers (allocator exhaustion paths,
 * magazine refill, quarantine budget, error-ring push, site
 * registration, drain-loop stall, snapshot delivery, governor pass).
 * Disarmed — the shipped default — every point costs one relaxed flag
 * load. The registry is process-wide (fault points live in layers
 * with no session context) and replays exactly: the same seed plus the
 * same schedule fires the same sequence. The EFFSAN_FAULTS environment
 * variable feeds the same spec grammar before main() — see
 * docs/RESILIENCE.md for the catalogue and replay workflow.
 *===--------------------------------------------------------------------===*/

/* Always 1: fault points are part of every build. Kept for ABI
 * compatibility. */
int effsan_fault_compiled_in(void);

/* Arms injection under `seed`: every point resets to off with zeroed
 * counters and a reseeded PRNG stream. Configure points afterwards. */
void effsan_fault_arm(uint64_t seed);

/* Disarms injection; configuration and counters stay readable. */
void effsan_fault_disarm(void);

/* Nonzero while armed. */
int effsan_fault_armed(void);

/* The seed of the current (or last) arming. */
uint64_t effsan_fault_seed(void);

/* Parses and applies a schedule spec — semicolon-separated entries,
 * each `seed=N` or `<point>=<mode>` with mode one of `off | count:N |
 * count:N@S | prob:N | every:N` — arming the registry under the spec's
 * seed (default 1) first. Returns 0 (registry left disarmed) on any
 * malformed entry or unknown point name, nonzero on success. Example:
 * "seed=42;heap_exhausted=prob:64;ring_full=count:3@100". */
int effsan_fault_configure(const char *spec);

/* Number of fault points this library compiles in; points are dense
 * indices [0, n). */
uint32_t effsan_fault_num_points(void);

/* Stable lower_snake name of `point` (NULL if out of range). */
const char *effsan_fault_point_name(uint32_t point);

/* Evaluations of / fires at `point` since the last arm (0 if out of
 * range). Every registered point evaluates on its layer's hot path
 * while armed, so evaluations > 0 proves the point was reached. */
uint64_t effsan_fault_evaluations(uint32_t point);
uint64_t effsan_fault_fires(uint32_t point);

/*===--------------------------------------------------------------------===*/
/* Observability (since 1.6)                                               */
/*                                                                         */
/* Three independently toggleable process-wide facilities, each of which  */
/* costs one relaxed flag load on the hot path when off:                   */
/*                                                                         */
/*   - trace:   per-thread lock-free event rings recording runtime events  */
/*              (check slow paths, magazine refills/flushes, quarantine    */
/*              batches, steals, shard recycles, drain ticks, governor     */
/*              steps, snapshot emissions), exportable as Chrome           */
/*              trace-event JSON (load it in Perfetto / about:tracing).    */
/*   - metrics: a registry of named counters, gauges and log2-bucketed     */
/*              histograms rendered in Prometheus text exposition format.  */
/*   - profile: per-session hot-site accounting (hits and cache misses    */
/*              per check site, resolved to file:line:column).             */
/*===--------------------------------------------------------------------===*/

#define EFFSAN_OBS_TRACE   (1u << 0)
#define EFFSAN_OBS_METRICS (1u << 1)
#define EFFSAN_OBS_PROFILE (1u << 2)

/* Replaces the process-wide observability flag set (a bitwise OR of the
 * EFFSAN_OBS_* flags above; unknown bits are ignored) and returns the
 * previous set. Takes effect immediately on every thread.
 *
 * Note effsan_obs_trace_start below sets EFFSAN_OBS_TRACE itself;
 * enabling the trace flag without a started tracer records nothing. */
uint32_t effsan_obs_enable(uint32_t flags);

/* The currently enabled flag set. */
uint32_t effsan_obs_flags(void);

/* Always 1: observability is part of every build. Kept for ABI
 * compatibility. */
int effsan_obs_compiled_in(void);

/* Starts a tracing session: discards any events from a previous
 * session, (re)sizes the per-thread rings to `ring_capacity` slots
 * (rounded up to a power of two; 0 = default 16384) and sets
 * EFFSAN_OBS_TRACE. Each thread that subsequently records an event
 * lazily registers its own ring; a full ring drops new events and
 * counts the drop rather than blocking. Always returns 1. */
int effsan_obs_trace_start(uint32_t ring_capacity);

/* Clears EFFSAN_OBS_TRACE. Already-recorded events remain exportable. */
void effsan_obs_trace_stop(void);

/* Receives one chunk of rendered output. `data` is valid only during
 * the call and is NOT NUL-terminated; `len` is its byte length. */
typedef void (*effsan_obs_write_fn)(const char *data, size_t len,
                                    void *user_data);

/* Renders every collected event as one Chrome trace-event JSON
 * document ({"displayTimeUnit":"ms","traceEvents":[...]}) through
 * `write` and returns the number of events exported. Collects all
 * per-thread rings first; safe to call while tracing is active (the
 * export is a consistent prefix). */
uint64_t effsan_obs_trace_export(effsan_obs_write_fn write,
                                 void *user_data);

/* Events dropped so far across all rings in the current tracing
 * session (ring-full drops plus collector-overflow drops). */
uint64_t effsan_obs_trace_dropped(void);

/* Renders the process-global metrics registry (check-latency
 * histograms and anything the embedder registered) in Prometheus text
 * exposition format through `write`. */
void effsan_obs_metrics_render(effsan_obs_write_fn write,
                               void *user_data);

/* Renders a service's metrics registry — refreshed from live service,
 * pool and heap state at the moment of the call — followed by the
 * process-global registry. */
void effsan_service_metrics_render(effsan_service *service,
                                   effsan_obs_write_fn write,
                                   void *user_data);

/* One hot check site, as returned by effsan_obs_hot_sites. The string
 * pointers point into the session's site registry and stay valid for
 * the session's lifetime; file is "" (never NULL) for unresolvable
 * sites (unregistered ids, pseudo-sites). */
typedef struct effsan_obs_site {
  uint32_t site;         /* rebased site id                            */
  uint32_t line;         /* 1-based; 0 = unknown                       */
  uint32_t column;       /* 1-based; 0 = unknown                       */
  uint32_t reserved_;
  uint64_t hits;         /* fast-path type checks, SAMPLED 1-in-16     */
  uint64_t misses;       /* slow-path type checks (exact)              */
  uint64_t error_events; /* error events attributed to the site        */
  const char *file;      /* "" when unresolved                         */
  const char *function;  /* NULL when unknown                          */
} effsan_obs_site;

/* Fills `out` with up to `capacity` of the session's hottest check
 * sites (ordered by hits + misses, descending) observed while
 * EFFSAN_OBS_PROFILE was enabled, and returns the number written.
 * Profiling uses a fixed-size direct-mapped table: two sites hashing
 * to the same slot keep the first claimant (collisions are counted,
 * not chained), so the result is a statistical top-N, not an exact
 * one. Returns 0 when profiling never ran. */
uint32_t effsan_obs_hot_sites(effsan_session *session,
                              effsan_obs_site *out, uint32_t capacity);

/* Pool-wide merged hot-site ranking (since 1.7): every shard's
 * profiler table summed by site id — a site checked from several
 * shards contributes one entry with pool-total hits and misses —
 * ordered by hits + misses descending, resolved once against the
 * pool-wide site registry, with error_events joined from the central
 * reporter (the pool drains first so queued events are counted). The
 * same statistical caveats as effsan_obs_hot_sites apply per shard.
 * Returns the number of entries written. */
uint32_t effsan_pool_hot_sites(effsan_pool *pool, effsan_obs_site *out,
                               uint32_t capacity);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* EFFECTIVE_API_EFFSAN_H */
