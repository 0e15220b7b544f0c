/* Atomic word operations on simulated-NVM regions.
 *
 * A region's volatile and persistent views are (int64, c_layout) Bigarrays.
 * OCaml 5.1 exposes no atomic operations on flat arrays, so the CAS/load/
 * store primitives the allocator is built from live here.  All values
 * exchanged with OCaml are tagged ints (62-bit payloads by design of every
 * encoding in the library), so none of these functions allocate.
 */

#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#include <caml/bigarray.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static inline _Atomic int64_t *word_ptr(value ba, value idx)
{
  return ((_Atomic int64_t *)Caml_ba_data_val(ba)) + Long_val(idx);
}

CAMLprim value rpm_load(value ba, value idx)
{
  return Val_long(atomic_load_explicit(word_ptr(ba, idx), memory_order_acquire));
}

CAMLprim value rpm_store(value ba, value idx, value v)
{
  atomic_store_explicit(word_ptr(ba, idx), (int64_t)Long_val(v),
                        memory_order_release);
  return Val_unit;
}

CAMLprim value rpm_cas(value ba, value idx, value expected, value desired)
{
  int64_t e = (int64_t)Long_val(expected);
  int ok = atomic_compare_exchange_strong(word_ptr(ba, idx), &e,
                                          (int64_t)Long_val(desired));
  return Val_bool(ok);
}

CAMLprim value rpm_fetch_add(value ba, value idx, value delta)
{
  return Val_long(atomic_fetch_add(word_ptr(ba, idx), (int64_t)Long_val(delta)));
}

/* Full-width (boxed Int64) access for the byte/string helpers: the word
 * API exchanges unboxed OCaml ints (62-bit payloads by design), but raw
 * application bytes need all 64 bits of the underlying cell. */
CAMLprim value rpm_load64(value ba, value idx)
{
  return caml_copy_int64(atomic_load_explicit(word_ptr(ba, idx), memory_order_acquire));
}

CAMLprim value rpm_store64(value ba, value idx, value v)
{
  atomic_store_explicit(word_ptr(ba, idx), Int64_val(v), memory_order_release);
  return Val_unit;
}

/* Write one 64 B cache line (8 words) back from the volatile view to the
 * persistent view.  Source words are read atomically; the persistent view is
 * only ever touched by flushes and crash reloads, never by CPUs, so plain
 * stores suffice on the destination side. */
CAMLprim value rpm_flush_line(value vol, value pers, value line)
{
  _Atomic int64_t *src = ((_Atomic int64_t *)Caml_ba_data_val(vol)) + Long_val(line) * 8;
  int64_t *dst = ((int64_t *)Caml_ba_data_val(pers)) + Long_val(line) * 8;
  for (int i = 0; i < 8; i++)
    dst[i] = atomic_load_explicit(src + i, memory_order_acquire);
  return Val_unit;
}

/* Bulk copy persistent -> volatile (crash reload) or volatile -> persistent
 * (clean shutdown).  [dir] = 0: vol -> pers, 1: pers -> vol. */
CAMLprim value rpm_sync_all(value vol, value pers, value nwords, value dir)
{
  int64_t *v = (int64_t *)Caml_ba_data_val(vol);
  int64_t *p = (int64_t *)Caml_ba_data_val(pers);
  size_t n = (size_t)Long_val(nwords) * sizeof(int64_t);
  if (Long_val(dir) == 0)
    memcpy(p, v, n);
  else
    memcpy(v, p, n);
  return Val_unit;
}
