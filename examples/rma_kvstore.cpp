// RMA example: a distributed fixed-slot key-value store built on LCI's
// one-sided primitives.
//
// Each rank exposes a registered window of slots; a key hashes to an owner
// rank and to a slot in the writer's own range of that owner's window, so
// two ranks never write one slot at once. Writers publish entries with
// *put-with-signal* — the RDMA write delivers the record and the attached
// notification tells the owner a slot changed (the owner tracks a change log
// without polling memory). Readers use plain *get* to fetch any slot from
// anywhere, with no involvement of the owner's CPU beyond progress.
//
//   ./rma_kvstore [nranks] [writes_per_rank]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/lci.hpp"

namespace {

struct record_t {
  uint64_t key = 0;
  uint64_t value = 0;
  uint64_t version = 0;  // 0 = empty
};

constexpr std::size_t slots_per_rank = 256;

uint64_t mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  return x;
}

// The slot of `key` in its owner's window. Every writer has its own range of
// slots_per_rank / n slots in each window, so concurrent puts from different
// ranks land in different slots; only one writer's own keys can collide.
std::size_t slot_of(uint64_t key, int writer, int n) {
  const std::size_t range = slots_per_rank / static_cast<std::size_t>(n);
  return static_cast<std::size_t>(writer) * range + mix(key) % range;
}

}  // namespace

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int writes = argc > 2 ? std::atoi(argv[2]) : 64;
  if (nranks < 1 || static_cast<std::size_t>(nranks) > slots_per_rank) {
    std::fprintf(stderr, "nranks must be 1..%zu\n", slots_per_rank);
    return 1;
  }

  lci::sim::spawn(nranks, [&](int rank) {
    lci::g_runtime_init();
    const int n = lci::get_rank_n();

    // The window: every rank's slots, registered for remote access.
    std::vector<record_t> window(slots_per_rank);
    lci::mr_t mr =
        lci::register_memory(window.data(), window.size() * sizeof(record_t));
    lci::rmr_t my_rmr = lci::get_rmr(mr);

    // Exchange window tokens (the out-of-band step PMI would provide).
    std::vector<lci::rmr_t> rmrs(static_cast<std::size_t>(n));
    lci::allgather(&my_rmr, rmrs.data(), sizeof(lci::rmr_t));

    // Change notifications arrive on a completion queue via put-with-signal.
    lci::comp_t change_cq = lci::alloc_cq();
    const lci::rcomp_t change_rcomp = lci::register_rcomp(change_cq);
    lci::barrier();

    // ---- publish phase: every rank writes `writes` records -------------
    lci::comp_t wsync = lci::alloc_sync(1);
    for (int i = 0; i < writes; ++i) {
      record_t record;
      record.key = mix(static_cast<uint64_t>(rank) << 32 | i);
      record.value = record.key * 3;
      record.version = 1;
      const int owner = static_cast<int>(record.key % static_cast<uint64_t>(n));
      const std::size_t slot = slot_of(record.key, rank, n);
      lci::status_t status;
      do {
        status = lci::post_put_x(owner, &record, sizeof(record), wsync,
                                 rmrs[static_cast<std::size_t>(owner)],
                                 slot * sizeof(record_t))
                     .remote_comp(change_rcomp)
                     .tag(static_cast<lci::tag_t>(slot & 0x7fff))();
        lci::progress();
      } while (status.error.is_retry());
      if (status.error.is_posted()) lci::sync_wait(wsync, nullptr);
    }

    // Count change notifications for our window while everyone publishes.
    // (Totals across ranks must equal total writes.)
    int notifications = 0;
    lci::barrier();  // all puts issued; drain what targeted us
    for (int spin = 0; spin < 2000; ++spin) {
      lci::progress();
      lci::status_t s = lci::cq_pop(change_cq);
      if (s.error.is_done()) ++notifications;
    }
    std::printf("[rank %d] %d change notifications for my window\n", rank,
                notifications);

    // ---- read phase: fetch back and verify our own records -------------
    lci::comp_t gsync = lci::alloc_sync(1);
    int verified = 0, overwritten = 0;
    for (int i = 0; i < writes; ++i) {
      const uint64_t key = mix(static_cast<uint64_t>(rank) << 32 | i);
      const int owner = static_cast<int>(key % static_cast<uint64_t>(n));
      const std::size_t slot = slot_of(key, rank, n);
      record_t fetched;
      lci::status_t status;
      do {
        status = lci::post_get(owner, &fetched, sizeof(fetched), gsync,
                               rmrs[static_cast<std::size_t>(owner)],
                               slot * sizeof(record_t));
        lci::progress();
      } while (status.error.is_retry());
      if (status.error.is_posted()) lci::sync_wait(gsync, nullptr);
      if (fetched.key == key && fetched.value == key * 3)
        ++verified;
      else if (fetched.version != 0)
        ++overwritten;  // another of our keys took the slot (expected)
    }
    std::printf("[rank %d] verified %d/%d records (%d slots overwritten by "
                "colliding keys)\n",
                rank, verified, writes, overwritten);

    lci::barrier();
    lci::deregister_rcomp(change_rcomp);
    lci::free_comp(&change_cq);
    lci::free_comp(&wsync);
    lci::free_comp(&gsync);
    lci::deregister_memory(&mr);
    lci::g_runtime_fina();
  });
  return 0;
}
