#include "common/bytes.h"

namespace hdldp {

// Out of line: the error path allocates, the read paths stay small
// enough to inline into the decoders.
Status ByteReader::Truncated() const {
  return Status(truncated_code_, truncated_message_);
}

}  // namespace hdldp
