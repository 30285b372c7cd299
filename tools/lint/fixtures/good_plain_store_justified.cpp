// lint:zone(core)
// Known-good: every plain TxCell mutation says why no running transaction
// can hold the word in its read set — on the call's line, in the comment
// block directly above the call, or above the first line of a statement
// the call continues.
#include <cstdint>

#include "sim_htm/txcell.hpp"

void publish(hcf::htm::TxCell<std::uint32_t>& status,
             hcf::htm::TxCell<std::uint32_t>* word) {
  status.store_plain(1);  // plain: the owner's attempt has not started
  // The waiters bit is set only on a held word.
  // plain: every subscriber of a held word aborts on it.
  (void)word->cas_plain(1, 1u | 0x8000'0000u);
  // plain: the acquisition's new orec version already doomed every
  // subscriber that read the word free before it.
  const std::uint32_t old =
      word->exchange_plain(0);
  (void)old;
  // Strong mutations need no justification.
  status.store(2);
}
