// Fuzz harness for the wire codec: envelope framing plus all four
// payload kinds (dense v1, OUE v2, OLH v3, Hadamard1 v4). The decoders
// promise that arbitrary bytes produce a typed error or a valid value —
// never UB, a wild allocation, or a crash; this harness is that promise
// under test.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <span>

#include "protocol/wire.h"

namespace {

// The service parses envelopes in place (ParseEnvelope); bench and
// tooling copy them out (DecodeEnvelope). Both must agree on every
// input: the same Status, and on success the same header fields and
// payload bytes. A disagreement aborts, so the replay driver and
// libFuzzer both report it as a crash.
void CheckEnvelopeParsersAgree(std::span<const std::uint8_t> bytes) {
  namespace proto = hdldp::protocol;
  const auto view = proto::ParseEnvelope(bytes);
  const auto copy = proto::DecodeEnvelope(bytes);
  if (view.ok() != copy.ok()) std::abort();
  if (!view.ok()) {
    if (view.status().code() != copy.status().code() ||
        view.status().message() != copy.status().message()) {
      std::abort();
    }
    return;
  }
  const proto::EnvelopeView& v = view.value();
  const proto::ReportEnvelope& c = copy.value();
  if (v.tenant != c.tenant || v.sequence != c.sequence || v.tick != c.tick ||
      !std::equal(v.payload.begin(), v.payload.end(), c.payload.begin(),
                  c.payload.end())) {
    std::abort();
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  namespace proto = hdldp::protocol;
  const std::span<const std::uint8_t> bytes(data, size);
  CheckEnvelopeParsersAgree(bytes);
  if (auto envelope = proto::ParseEnvelope(bytes); envelope.ok()) {
    // The framed payload is attacker bytes too: the service hands it to
    // the kind-specific decoder, so exercise every one of them.
    const std::span<const std::uint8_t> payload = envelope.value().payload;
    (void)proto::PayloadEncoding(payload);
    (void)proto::DecodeReport(payload);
    (void)proto::DecodeOuePayload(payload);
    (void)proto::DecodeOlhPayload(payload);
    (void)proto::DecodeHadamard1Payload(payload);
  }
  // The raw input doubles as a bare payload (no envelope framing).
  (void)proto::PayloadEncoding(bytes);
  (void)proto::DecodeReport(bytes);
  (void)proto::DecodeOuePayload(bytes);
  (void)proto::DecodeOlhPayload(bytes);
  (void)proto::DecodeHadamard1Payload(bytes);
  return 0;
}
