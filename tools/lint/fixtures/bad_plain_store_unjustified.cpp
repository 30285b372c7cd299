// lint:zone(core)
// Known-bad: plain (non-dooming) TxCell mutations with no '// plain:'
// justification. A plain store leaves no orec evidence, so a transaction
// holding the word in its read set would commit on a stale value; each call
// must say why no running transaction can hold the word.
#include <cstdint>

#include "sim_htm/txcell.hpp"

void publish(hcf::htm::TxCell<std::uint32_t>& status,
             hcf::htm::TxCell<std::uint32_t>* word) {
  status.store_plain(1);  // expect-lint: plain-store-justification
  // The owner announces here.
  (void)word->exchange_plain(0);  // expect-lint: plain-store-justification
  // plain: a justification separated from its call by a blank line.

  (void)status.cas_plain(1, 2);  // expect-lint: plain-store-justification
  const std::uint32_t old =
      status.exchange_plain(3);  // expect-lint: plain-store-justification
  (void)old;
}
