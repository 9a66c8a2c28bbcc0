// Tests for the communication-efficient report encodings: OUE/OLH
// frequency oracles and Hadamard 1-bit mean reports. Covers the
// parameter math (quantization, unbiased decoders), the frozen encoder
// draw layouts (golden streams + exact draw consumption), the compact
// wire payload kinds (roundtrip + strict corruption handling), the
// service-side PayloadCodec, unbiasedness-within-CI of every decoder
// against ground truth on a fixed seed grid, thread-count/source
// invariance pins mirroring tests/test_chunk_source.cc, and service
// end-to-end ingestion (worker-count bit-identity, snapshot restore,
// the accepted-payload-bytes ledger).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/generator_source.h"
#include "data/generators.h"
#include "data/shard.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "protocol/hadamard.h"
#include "protocol/pipeline.h"
#include "protocol/wire.h"
#include "service/aggregation_service.h"
#include "service/payload_codec.h"
#include "service/report_stream.h"

namespace hdldp {
namespace {

using protocol::ReportEncoding;

std::uint64_t Bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// ---------------------------------------------------------------------------
// Parameter math and unbiased decoders.
// ---------------------------------------------------------------------------

TEST(OueParamsTest, Ln3GivesExactQuarterQ) {
  // e^eps = 3: ideal q = 1/4 is exactly representable in 16 bits.
  const auto params = freq::OueParams::FromEpsilon(std::log(3.0)).value();
  EXPECT_DOUBLE_EQ(params.p, 0.5);
  EXPECT_EQ(params.q16, 16384u);
  EXPECT_DOUBLE_EQ(params.q, 0.25);
  EXPECT_DOUBLE_EQ(params.EntryValue(true), 3.0);
  EXPECT_DOUBLE_EQ(params.EntryValue(false), -1.0);
  // Decode over r reports equals the average of per-report EntryValues.
  EXPECT_DOUBLE_EQ(params.Decode(7.0, 10.0),
                   (7.0 * params.EntryValue(true) +
                    3.0 * params.EntryValue(false)) /
                       10.0);
}

TEST(OueParamsTest, QuantizationRoundsUpNeverLoosensPrivacy) {
  for (const double eps : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    const auto params = freq::OueParams::FromEpsilon(eps).value();
    const double ideal = 1.0 / (std::exp(eps) + 1.0);
    // q_eff >= ideal q: the realized flip probability is never below the
    // eps-LDP requirement, so privacy holds with slack.
    EXPECT_GE(params.q, ideal) << eps;
    EXPECT_LT(params.q - ideal, 1.0 / 65536.0 + 1e-12) << eps;
    EXPECT_EQ(params.q16, static_cast<std::uint32_t>(
                              std::ceil(ideal * 65536.0)))
        << eps;
  }
  // Very large eps clamps q16 to 1, never 0 (gain p - q stays finite and
  // the decoder stays well defined).
  EXPECT_EQ(freq::OueParams::FromEpsilon(30.0).value().q16, 1u);
}

TEST(OueParamsTest, Validates) {
  EXPECT_FALSE(freq::OueParams::FromEpsilon(0.0).ok());
  EXPECT_FALSE(freq::OueParams::FromEpsilon(-1.0).ok());
  // Below the 16-bit quantization floor q would collide with p = 1/2.
  EXPECT_FALSE(freq::OueParams::FromEpsilon(1e-6).ok());
}

TEST(OueParamsTest, EntryValueExpectationIsUnbiased) {
  const auto params = freq::OueParams::FromEpsilon(0.7).value();
  // A present category's bit is on with probability p, an absent one's
  // with probability q; the decoded expectations must be exactly 1 and 0.
  const double present = params.p * params.EntryValue(true) +
                         (1.0 - params.p) * params.EntryValue(false);
  const double absent = params.q * params.EntryValue(true) +
                        (1.0 - params.q) * params.EntryValue(false);
  EXPECT_NEAR(present, 1.0, 1e-12);
  EXPECT_NEAR(absent, 0.0, 1e-12);
}

TEST(OlhParamsTest, Ln3GivesGFourAndHalfP) {
  const auto params = freq::OlhParams::FromEpsilon(std::log(3.0)).value();
  EXPECT_EQ(params.g, 4u);  // round(e^eps) + 1
  EXPECT_NEAR(params.p, 0.5, 1e-12);  // 3 / (3 + 4 - 1)
  EXPECT_FALSE(freq::OlhParams::FromEpsilon(0.0).ok());
  EXPECT_FALSE(freq::OlhParams::FromEpsilon(-2.0).ok());
  // Tiny eps still keeps at least two buckets.
  EXPECT_EQ(freq::OlhParams::FromEpsilon(0.01).value().g, 2u);
}

TEST(OlhParamsTest, EntryValueExpectationIsUnbiased) {
  const auto params = freq::OlhParams::FromEpsilon(1.3).value();
  const double q = 1.0 / static_cast<double>(params.g);
  // The true category supports the report with probability p; any other
  // fixed category supports it with probability 1/g over the hash family.
  const double present = params.p * params.EntryValue(true) +
                         (1.0 - params.p) * params.EntryValue(false);
  const double absent = q * params.EntryValue(true) +
                        (1.0 - q) * params.EntryValue(false);
  EXPECT_NEAR(present, 1.0, 1e-12);
  EXPECT_NEAR(absent, 0.0, 1e-12);
}

TEST(HadamardParamsTest, CreateAndOrthogonality) {
  const auto params = protocol::Hadamard1Params::Create(10, 5, 1.0).value();
  EXPECT_EQ(params.padded, 8u);  // bit_ceil(5)
  EXPECT_DOUBLE_EQ(params.bound, 5.0);
  EXPECT_NEAR(params.c, std::tanh(0.5), 1e-15);
  EXPECT_FALSE(protocol::Hadamard1Params::Create(4, 5, 1.0).ok());
  EXPECT_FALSE(protocol::Hadamard1Params::Create(4, 0, 1.0).ok());
  EXPECT_FALSE(protocol::Hadamard1Params::Create(4, 2, 0.0).ok());
  // Row orthogonality over the padded order — the identity behind the
  // exact unbiasedness proof: E_i[H(i,p) H(i,q)] = delta_pq.
  for (std::uint32_t p = 0; p < 8; ++p) {
    for (std::uint32_t q = 0; q < 8; ++q) {
      double sum = 0.0;
      for (std::uint32_t i = 0; i < 8; ++i) {
        sum += protocol::HadamardSign(i, p) * protocol::HadamardSign(i, q);
      }
      EXPECT_DOUBLE_EQ(sum, p == q ? 8.0 : 0.0) << p << ":" << q;
    }
  }
}

TEST(HadamardParamsTest, DecoderExpectationIsExactlyUnbiased) {
  // Sum the decoder over both bit outcomes at every row index, weighted
  // by the encoder's acceptance probability: the result must equal the
  // clamped input value exactly (up to fp roundoff), with no sampling.
  const auto params = protocol::Hadamard1Params::Create(8, 4, 1.0).value();
  const double values[] = {0.5, -1.0, 0.25, 2.0};  // last clamps to 1.0
  for (std::uint32_t pos = 0; pos < 4; ++pos) {
    double expectation = 0.0;
    for (std::uint32_t index = 0; index < params.padded; ++index) {
      const double s = protocol::Hadamard1Projection(index, values);
      const double p_plus = 0.5 + params.c * s / (2.0 * params.bound);
      expectation +=
          (p_plus * protocol::Hadamard1EntryValue(params, index, pos, true) +
           (1.0 - p_plus) *
               protocol::Hadamard1EntryValue(params, index, pos, false)) /
          static_cast<double>(params.padded);
    }
    const double clamped = std::min(1.0, std::max(-1.0, values[pos]));
    EXPECT_NEAR(expectation, clamped, 1e-12) << pos;
  }
}

TEST(HadamardProjectionTest, MatchesManualSumWithClamping) {
  const double values[] = {0.5, -2.0, 1.0};
  // index 5 = 0b101: signs over pos 0..2 are +, +, - ... H(5,0)=+1,
  // H(5,1)=(-1)^popcount(5&1... compute directly against HadamardSign.
  double expected = 0.0;
  const double clamped[] = {0.5, -1.0, 1.0};
  for (std::uint32_t pos = 0; pos < 3; ++pos) {
    expected += protocol::HadamardSign(5, pos) * clamped[pos];
  }
  EXPECT_DOUBLE_EQ(protocol::Hadamard1Projection(5, values), expected);
}

// ---------------------------------------------------------------------------
// Frozen encoder draw layouts: golden streams + exact draw consumption.
// These bits may never change, or recorded payloads and the pinned
// pipeline estimates change under their seeds.
// ---------------------------------------------------------------------------

TEST(GoldenStreamTest, OueEncodeDimBitsAndDrawCount) {
  const auto params = freq::OueParams::FromEpsilon(std::log(3.0)).value();
  Rng rng(42);
  std::vector<std::uint8_t> bits;
  freq::OueEncodeDim(params, 5, 16, &rng, &bits);
  ASSERT_EQ(bits.size(), 2u);
  EXPECT_EQ(bits[0], 0x30);
  EXPECT_EQ(bits[1], 0x32);
  // The stream continues deterministically into the next dimension.
  freq::OueEncodeDim(params, 0, 10, &rng, &bits);
  ASSERT_EQ(bits.size(), 2u);
  EXPECT_EQ(bits[0], 0x05);
  EXPECT_EQ(bits[1], 0x03);
  // Padding bits past the cardinality stay zero (the wire codec requires
  // a unique encoding).
  EXPECT_EQ(bits[1] >> 2, 0);

  // Exactly ceil(cardinality / 4) raw draws per dimension, regardless of
  // category or bit outcomes.
  for (const std::size_t cardinality : {std::size_t{2}, std::size_t{4},
                                        std::size_t{10}, std::size_t{16},
                                        std::size_t{17}}) {
    Rng a(123);
    Rng b(123);
    freq::OueEncodeDim(params, 1, cardinality, &a, &bits);
    for (std::size_t d = 0; d < (cardinality + 3) / 4; ++d) b.Next();
    EXPECT_EQ(a.Next(), b.Next()) << cardinality;
  }
}

TEST(GoldenStreamTest, OlhEncodeDimReports) {
  const auto params = freq::OlhParams::FromEpsilon(std::log(3.0)).value();
  Rng rng(42);
  const std::uint32_t kSeeds[] = {0x4476689f, 0x0c24ed8c, 0x4e50de7d,
                                  0x0ed8cb46};
  const std::uint32_t kValues[] = {1, 3, 0, 2};
  for (std::uint32_t cat = 0; cat < 4; ++cat) {
    const freq::OlhDimReport report = freq::OlhEncodeDim(params, cat, &rng);
    EXPECT_EQ(report.hash_seed, kSeeds[cat]) << cat;
    EXPECT_EQ(report.value, kValues[cat]) << cat;
    EXPECT_LT(report.value, params.g) << cat;
  }
}

TEST(GoldenStreamTest, OlhHasherBucketsAndUniformity) {
  // The multiplicative hash family is frozen: recorded OLH payloads
  // decode through it.
  const freq::OlhHasher hasher(12345);
  const std::uint32_t kBuckets[] = {0, 1, 1, 2, 2, 3, 3, 0};
  for (std::uint32_t k = 0; k < 8; ++k) {
    EXPECT_EQ(hasher.Bucket(k, 4), kBuckets[k]) << k;
    // The one-shot form is definitionally the same hash.
    EXPECT_EQ(freq::OlhHash(12345, k, 4), kBuckets[k]) << k;
  }
  // Buckets stay in range and spread roughly uniformly over the seed
  // family (the unbiasedness of the absent-category decoder rests on
  // P[hash(k) == v] = 1/g over seeds).
  std::size_t counts[4] = {0, 0, 0, 0};
  for (std::uint32_t seed = 0; seed < 4000; ++seed) {
    const std::uint32_t bucket = freq::OlhHash(seed, 7, 4);
    ASSERT_LT(bucket, 4u);
    ++counts[bucket];
  }
  for (const std::size_t count : counts) {
    EXPECT_GT(count, 800u);
    EXPECT_LT(count, 1200u);
  }
}

TEST(GoldenStreamTest, HadamardSampleDimsAndEncode) {
  std::vector<std::uint32_t> dims;
  protocol::Hadamard1SampleDims(99, 10, 4, &dims);
  const std::vector<std::uint32_t> kExpected = {1, 2, 3, 4};
  EXPECT_EQ(dims, kExpected);
  // Deterministic, sorted, distinct, in range.
  std::vector<std::uint32_t> again;
  protocol::Hadamard1SampleDims(99, 10, 4, &again);
  EXPECT_EQ(dims, again);
  for (std::uint32_t seed = 0; seed < 50; ++seed) {
    protocol::Hadamard1SampleDims(seed, 9, 4, &dims);
    ASSERT_EQ(dims.size(), 4u);
    for (std::size_t i = 0; i < dims.size(); ++i) {
      ASSERT_LT(dims[i], 9u);
      if (i > 0) {
        ASSERT_LT(dims[i - 1], dims[i]) << seed;
      }
    }
  }
  // m == d samples every dimension.
  protocol::Hadamard1SampleDims(7, 5, 5, &dims);
  EXPECT_EQ(dims, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));

  // Encode golden + draw layout: one UniformInt(padded) for the row,
  // one uniform for the sign coin.
  const auto params = protocol::Hadamard1Params::Create(8, 4, 1.0).value();
  EXPECT_EQ(params.padded, 4u);
  const double values[] = {0.5, -1.0, 0.25, 1.0};
  Rng rng(3);
  const protocol::Hadamard1Report report =
      protocol::Hadamard1Encode(params, values, &rng);
  EXPECT_EQ(report.index, 0u);
  EXPECT_FALSE(report.positive);
  Rng a(3);
  Rng b(3);
  (void)protocol::Hadamard1Encode(params, values, &a);
  (void)b.UniformInt(params.padded);
  (void)b.UniformDouble();
  EXPECT_EQ(a.Next(), b.Next());
}

// ---------------------------------------------------------------------------
// Compact wire payload kinds: roundtrip, kind peeking, strict corruption
// handling.
// ---------------------------------------------------------------------------

TEST(CompactWireTest, EncodingNamesRoundTrip) {
  for (const ReportEncoding encoding :
       {ReportEncoding::kDense, ReportEncoding::kOue, ReportEncoding::kOlh,
        ReportEncoding::kHadamard1}) {
    const auto parsed =
        protocol::ParseReportEncoding(protocol::ReportEncodingName(encoding));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), encoding);
  }
  // The service checkpoint digest hashes these numbers.
  EXPECT_EQ(static_cast<int>(ReportEncoding::kOue), 2);
  EXPECT_EQ(static_cast<int>(ReportEncoding::kOlh), 3);
  EXPECT_EQ(static_cast<int>(ReportEncoding::kHadamard1), 4);
  // m < d is a report_dims, not an encoding.
  EXPECT_FALSE(protocol::ParseReportEncoding("sampled").ok());
  EXPECT_FALSE(protocol::ParseReportEncoding("base64").ok());
  EXPECT_FALSE(protocol::ParseReportEncoding("").ok());
}

TEST(CompactWireTest, PayloadEncodingPeeksTheVersionByte) {
  protocol::UserReport numeric;
  numeric.entries.push_back(protocol::DimensionReport{0, 0.5});
  const auto v1 = protocol::EncodeReport(numeric).value();
  EXPECT_EQ(protocol::PayloadEncoding(v1).value(), ReportEncoding::kDense);
  const std::uint8_t unknown[] = {9};
  EXPECT_FALSE(protocol::PayloadEncoding(unknown).ok());
  EXPECT_FALSE(protocol::PayloadEncoding({}).ok());
}

TEST(CompactWireTest, OuePayloadRoundTripAndCorruption) {
  protocol::OuePayload payload;
  payload.num_dims = 6;
  protocol::OuePayloadDim d1;
  d1.dimension = 1;
  d1.cardinality = 5;
  d1.bits.assign(1, 0);
  d1.SetBit(0);
  d1.SetBit(4);
  protocol::OuePayloadDim d4;
  d4.dimension = 4;
  d4.cardinality = 12;
  d4.bits.assign(2, 0);
  d4.SetBit(3);
  d4.SetBit(11);
  payload.dims = {d1, d4};
  const auto bytes = protocol::EncodeOuePayload(payload).value();
  EXPECT_EQ(protocol::PayloadEncoding(bytes).value(), ReportEncoding::kOue);
  const auto decoded = protocol::DecodeOuePayload(bytes).value();
  EXPECT_EQ(decoded.num_dims, 6u);
  ASSERT_EQ(decoded.dims.size(), 2u);
  EXPECT_EQ(decoded.dims[0].dimension, 1u);
  EXPECT_EQ(decoded.dims[0].cardinality, 5u);
  EXPECT_EQ(decoded.dims[0].bits, d1.bits);
  EXPECT_TRUE(decoded.dims[0].Bit(0));
  EXPECT_FALSE(decoded.dims[0].Bit(1));
  EXPECT_TRUE(decoded.dims[0].Bit(4));
  EXPECT_EQ(decoded.dims[1].dimension, 4u);
  EXPECT_EQ(decoded.dims[1].bits, d4.bits);

  // Every truncation is a typed error, never UB.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        protocol::DecodeOuePayload({bytes.data(), len}).ok())
        << len;
  }
  // Set padding bits break the unique-encoding rule.
  auto padded = bytes;
  padded[padded.size() - 3] |= 0xE0;  // d1's byte: bits 5-7 beyond card 5
  EXPECT_FALSE(protocol::DecodeOuePayload(padded).ok());
  // Encoder rejects descending dims, out-of-width dims and bad lengths.
  protocol::OuePayload bad = payload;
  std::swap(bad.dims[0], bad.dims[1]);
  EXPECT_FALSE(protocol::EncodeOuePayload(bad).ok());
  bad = payload;
  bad.dims[1].dimension = 6;
  EXPECT_FALSE(protocol::EncodeOuePayload(bad).ok());
  bad = payload;
  bad.dims[0].bits.push_back(0);
  EXPECT_FALSE(protocol::EncodeOuePayload(bad).ok());
}

TEST(CompactWireTest, OlhPayloadRoundTripAndCorruption) {
  protocol::OlhPayload payload;
  payload.num_dims = 5;
  payload.dims = {
      protocol::OlhPayloadDim{0, 4, 0xDEADBEEF, 3},
      protocol::OlhPayloadDim{3, 4, 0x12345678, 0},
  };
  const auto bytes = protocol::EncodeOlhPayload(payload).value();
  EXPECT_EQ(protocol::PayloadEncoding(bytes).value(), ReportEncoding::kOlh);
  const auto decoded = protocol::DecodeOlhPayload(bytes).value();
  EXPECT_EQ(decoded.num_dims, 5u);
  ASSERT_EQ(decoded.dims.size(), 2u);
  EXPECT_EQ(decoded.dims[0].dimension, 0u);
  EXPECT_EQ(decoded.dims[0].g, 4u);
  EXPECT_EQ(decoded.dims[0].hash_seed, 0xDEADBEEFu);
  EXPECT_EQ(decoded.dims[0].value, 3u);
  EXPECT_EQ(decoded.dims[1].dimension, 3u);
  EXPECT_EQ(decoded.dims[1].hash_seed, 0x12345678u);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(protocol::DecodeOlhPayload({bytes.data(), len}).ok()) << len;
  }
  protocol::OlhPayload bad = payload;
  bad.dims[0].value = 4;  // >= g
  EXPECT_FALSE(protocol::EncodeOlhPayload(bad).ok());
  bad = payload;
  bad.dims[1].dimension = 0;  // duplicate / descending
  EXPECT_FALSE(protocol::EncodeOlhPayload(bad).ok());
}

TEST(CompactWireTest, Hadamard1PayloadRoundTripAndCorruption) {
  protocol::Hadamard1Payload payload;
  payload.num_dims = 32;
  payload.report_dims = 8;
  payload.sample_seed = 0xCAFEBABE;
  payload.index = 6;
  payload.positive = true;
  const auto bytes = protocol::EncodeHadamard1Payload(payload).value();
  EXPECT_EQ(protocol::PayloadEncoding(bytes).value(),
            ReportEncoding::kHadamard1);
  const auto decoded = protocol::DecodeHadamard1Payload(bytes).value();
  EXPECT_EQ(decoded.num_dims, 32u);
  EXPECT_EQ(decoded.report_dims, 8u);
  EXPECT_EQ(decoded.sample_seed, 0xCAFEBABEu);
  EXPECT_EQ(decoded.index, 6u);
  EXPECT_TRUE(decoded.positive);
  // The whole report is ~10 bytes on the wire.
  EXPECT_LE(bytes.size(), 10u);

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        protocol::DecodeHadamard1Payload({bytes.data(), len}).ok())
        << len;
  }
  protocol::Hadamard1Payload bad = payload;
  bad.report_dims = 33;  // > num_dims
  EXPECT_FALSE(protocol::EncodeHadamard1Payload(bad).ok());
}

// ---------------------------------------------------------------------------
// Service-side PayloadCodec: unbiased entry values, strict geometry.
// ---------------------------------------------------------------------------

service::PayloadCodecOptions FreqCodecOptions(ReportEncoding encoding) {
  service::PayloadCodecOptions options;
  options.encoding = encoding;
  options.epsilon = 2.0 * std::log(3.0);  // per-dim ln 3 at m = 2
  options.report_dims = 2;
  options.num_questions = 4;
  options.num_categories = 4;
  return options;
}

TEST(PayloadCodecTest, CreateValidates) {
  service::PayloadCodecOptions numeric;
  numeric.encoding = ReportEncoding::kDense;
  EXPECT_FALSE(service::PayloadCodec::Create(numeric).ok());

  auto bad = FreqCodecOptions(ReportEncoding::kOue);
  bad.report_dims = 0;
  EXPECT_FALSE(service::PayloadCodec::Create(bad).ok());
  bad = FreqCodecOptions(ReportEncoding::kOue);
  bad.num_questions = 0;
  EXPECT_FALSE(service::PayloadCodec::Create(bad).ok());
  bad = FreqCodecOptions(ReportEncoding::kOlh);
  bad.num_categories = 1;
  EXPECT_FALSE(service::PayloadCodec::Create(bad).ok());
  bad = FreqCodecOptions(ReportEncoding::kOue);
  bad.report_dims = 5;  // > num_questions
  EXPECT_FALSE(service::PayloadCodec::Create(bad).ok());
}

TEST(PayloadCodecTest, DecodesOueIntoUnbiasedEntries) {
  const auto codec =
      service::PayloadCodec::Create(FreqCodecOptions(ReportEncoding::kOue))
          .value();
  EXPECT_EQ(codec.service_dims(), 16u);  // 4 questions x 4 categories
  EXPECT_EQ(codec.expected_entries(), 8u);
  const auto params = freq::OueParams::FromEpsilon(std::log(3.0)).value();
  EXPECT_DOUBLE_EQ(codec.output_lo(), params.EntryValue(false));
  EXPECT_DOUBLE_EQ(codec.output_hi(), params.EntryValue(true));

  protocol::OuePayload payload;
  payload.num_dims = 4;
  protocol::OuePayloadDim d1;
  d1.dimension = 1;
  d1.cardinality = 4;
  d1.bits = {0x05};  // categories 0 and 2 on
  protocol::OuePayloadDim d3;
  d3.dimension = 3;
  d3.cardinality = 4;
  d3.bits = {0x08};  // category 3 on
  payload.dims = {d1, d3};
  const auto bytes = protocol::EncodeOuePayload(payload).value();
  const auto report = codec.Decode(bytes).value();
  ASSERT_EQ(report.entries.size(), 8u);
  const bool kBits[2][4] = {{true, false, true, false},
                            {false, false, false, true}};
  const std::uint32_t kBase[2] = {4, 12};
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 4; ++k) {
      const auto& entry = report.entries[i * 4 + k];
      EXPECT_EQ(entry.dimension, kBase[i] + k);
      EXPECT_DOUBLE_EQ(entry.value, params.EntryValue(kBits[i][k]));
    }
  }

  // Geometry mismatches are typed decode errors.
  protocol::OuePayload wrong = payload;
  wrong.num_dims = 5;
  EXPECT_FALSE(
      codec.Decode(protocol::EncodeOuePayload(wrong).value()).ok());
  wrong = payload;
  wrong.dims[0].cardinality = 3;
  wrong.dims[0].bits = {0x05};
  EXPECT_FALSE(
      codec.Decode(protocol::EncodeOuePayload(wrong).value()).ok());
  wrong = payload;
  wrong.dims.pop_back();
  EXPECT_FALSE(
      codec.Decode(protocol::EncodeOuePayload(wrong).value()).ok());
  // A payload of a different kind never decodes.
  protocol::Hadamard1Payload other;
  other.num_dims = 4;
  other.report_dims = 2;
  EXPECT_FALSE(
      codec.Decode(protocol::EncodeHadamard1Payload(other).value()).ok());
}

TEST(PayloadCodecTest, DecodesOlhThroughTheHashFamily) {
  const auto codec =
      service::PayloadCodec::Create(FreqCodecOptions(ReportEncoding::kOlh))
          .value();
  const auto params = freq::OlhParams::FromEpsilon(std::log(3.0)).value();
  ASSERT_EQ(params.g, 4u);

  protocol::OlhPayload payload;
  payload.num_dims = 4;
  payload.dims = {
      protocol::OlhPayloadDim{0, 4, 12345, 1},
      protocol::OlhPayloadDim{2, 4, 777, 0},
  };
  const auto report =
      codec.Decode(protocol::EncodeOlhPayload(payload).value()).value();
  ASSERT_EQ(report.entries.size(), 8u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& dim = payload.dims[i];
    const freq::OlhHasher hasher(dim.hash_seed);
    for (std::size_t k = 0; k < 4; ++k) {
      const auto& entry = report.entries[i * 4 + k];
      EXPECT_EQ(entry.dimension, dim.dimension * 4 + k);
      const bool supports =
          hasher.Bucket(static_cast<std::uint32_t>(k), 4) == dim.value;
      EXPECT_DOUBLE_EQ(entry.value, params.EntryValue(supports));
    }
  }
  // A g that does not match the configured epsilon is a decode error.
  protocol::OlhPayload wrong = payload;
  wrong.dims[0].g = 8;
  EXPECT_FALSE(
      codec.Decode(protocol::EncodeOlhPayload(wrong).value()).ok());
}

TEST(PayloadCodecTest, DecodesHadamard1AtTheSampledDims) {
  service::PayloadCodecOptions options;
  options.encoding = ReportEncoding::kHadamard1;
  options.epsilon = 1.0;
  options.report_dims = 4;
  options.num_dims = 10;
  const auto codec = service::PayloadCodec::Create(options).value();
  EXPECT_EQ(codec.service_dims(), 10u);
  EXPECT_EQ(codec.expected_entries(), 4u);
  const auto params = protocol::Hadamard1Params::Create(10, 4, 1.0).value();

  protocol::Hadamard1Payload payload;
  payload.num_dims = 10;
  payload.report_dims = 4;
  payload.sample_seed = 99;
  payload.index = 2;
  payload.positive = true;
  const auto report =
      codec.Decode(protocol::EncodeHadamard1Payload(payload).value()).value();
  ASSERT_EQ(report.entries.size(), 4u);
  const std::uint32_t kDims[] = {1, 2, 3, 4};  // golden sample of seed 99
  for (std::size_t pos = 0; pos < 4; ++pos) {
    EXPECT_EQ(report.entries[pos].dimension, kDims[pos]);
    EXPECT_DOUBLE_EQ(report.entries[pos].value,
                     protocol::Hadamard1EntryValue(
                         params, 2, static_cast<std::uint32_t>(pos), true));
  }
  protocol::Hadamard1Payload wrong = payload;
  wrong.index = 4;  // >= padded
  EXPECT_FALSE(
      codec.Decode(protocol::EncodeHadamard1Payload(wrong).value()).ok());
  wrong = payload;
  wrong.num_dims = 11;
  EXPECT_FALSE(
      codec.Decode(protocol::EncodeHadamard1Payload(wrong).value()).ok());
}

// ---------------------------------------------------------------------------
// Pipelines: option validation, unbiasedness within CI on a fixed seed
// grid, frozen end-to-end golden bits, and thread/source invariance.
// ---------------------------------------------------------------------------

TEST(EncodingPipelineTest, WorkloadEncodingMismatchesAreRejected) {
  Rng rng(1);
  const auto dataset =
      data::Generate(data::UniformSpec{.num_users = 100, .num_dims = 4},
                     &rng).value();
  protocol::PipelineOptions mean_opts;
  mean_opts.report_dims = 2;
  mean_opts.encoding = ReportEncoding::kOue;
  EXPECT_FALSE(protocol::RunMeanEstimation(dataset, nullptr, mean_opts).ok());
  mean_opts.encoding = ReportEncoding::kOlh;
  EXPECT_FALSE(protocol::RunMeanEstimation(dataset, nullptr, mean_opts).ok());

  Rng crng(2);
  const auto categorical =
      freq::GenerateCategorical(
          100, freq::CategoricalSchema::Create({3, 3}).value(), 0.0, &crng)
          .value();
  freq::FrequencyOptions freq_opts;
  freq_opts.encoding = ReportEncoding::kHadamard1;
  EXPECT_FALSE(
      freq::RunFrequencyEstimation(categorical, nullptr, freq_opts).ok());
}

TEST(EncodingPipelineTest, OracleFailsTypedWhenADimensionGetsNoReports) {
  // One user sampling 1 of 4 dimensions leaves three dimensions with
  // r = 0, where the estimator is undefined.
  const auto schema =
      freq::CategoricalSchema::Create(std::vector<std::size_t>(4, 3)).value();
  const auto dataset = freq::CategoricalDataset::Create(1, schema).value();
  freq::FrequencyOptions opts;
  opts.report_dims = 1;
  opts.encoding = ReportEncoding::kOue;
  const auto run = freq::RunFrequencyEstimation(dataset, nullptr, opts);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EncodingPipelineTest, OracleFrequenciesRecoverTruthWithinCI) {
  // Generous budget, 40k users: the unbiased oracle estimates must land
  // within a few standard errors of ground truth at every fixed seed.
  const auto schema =
      freq::CategoricalSchema::Create(std::vector<std::size_t>(4, 4)).value();
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    Rng rng(seed);
    const auto dataset =
        freq::GenerateCategorical(40000, schema, 1.0, &rng).value();
    for (const ReportEncoding encoding :
         {ReportEncoding::kOue, ReportEncoding::kOlh}) {
      freq::FrequencyOptions opts;
      opts.total_epsilon = 8.0;  // eps/m = 4 per sampled dimension
      opts.report_dims = 2;
      opts.seed = seed + 100;
      opts.encoding = encoding;
      const auto run =
          freq::RunFrequencyEstimation(dataset, nullptr, opts).value();
      EXPECT_DOUBLE_EQ(run.per_entry_epsilon, 4.0);
      for (std::size_t j = 0; j < 4; ++j) {
        for (std::size_t k = 0; k < 4; ++k) {
          EXPECT_NEAR(run.raw[j][k], run.true_frequencies[j][k], 0.05)
              << protocol::ReportEncodingName(encoding) << " seed " << seed
              << " " << j << ":" << k;
        }
      }
    }
  }
}

TEST(EncodingPipelineTest, HadamardMeanRecoversTruthWithinCI) {
  for (const std::uint64_t seed : {4ull, 5ull, 6ull}) {
    Rng rng(seed);
    const auto dataset =
        data::Generate(data::UniformSpec{.num_users = 40000, .num_dims = 4},
                       &rng).value();
    protocol::PipelineOptions opts;
    opts.total_epsilon = 4.0;
    opts.report_dims = 2;
    opts.seed = seed + 200;
    opts.encoding = ReportEncoding::kHadamard1;
    const auto run =
        protocol::RunMeanEstimation(dataset, nullptr, opts).value();
    // stderr per dimension ~= (bound/c) / sqrt(n m / d) ~= 0.015 here;
    // 0.08 is > 5 sigma at these fixed seeds.
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(run.estimated_mean[j], run.true_mean[j], 0.08)
          << "seed " << seed << " dim " << j;
    }
  }
}

TEST(EncodingPipelineTest, GoldenEstimateBitsAndThreadInvariance) {
  // End-to-end frozen bits of the compact-encoding stream contracts:
  // changing any draw layout, fold order or decode changes these.
  {
    data::GaussianSpec spec;
    spec.num_users = 6000;
    spec.num_dims = 4;
    const auto dataset = data::GenerateChunkKeyed(spec, 77).value();
    protocol::PipelineOptions opts;
    opts.total_epsilon = 1.0;
    opts.report_dims = 2;
    opts.seed = 5;
    opts.num_threads = 1;
    opts.encoding = ReportEncoding::kHadamard1;
    const auto run =
        protocol::RunMeanEstimation(dataset, nullptr, opts).value();
    const std::uint64_t kGolden[] = {
        0x3fed2f0287428de9ULL, 0x3f8dcdb079b2dfb6ULL, 0x3f8a94f0c6a019e2ULL,
        0xbf670984516d6ba0ULL};
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(Bits(run.estimated_mean[j]), kGolden[j]) << j;
    }
    opts.num_threads = 4;
    const auto threaded =
        protocol::RunMeanEstimation(dataset, nullptr, opts).value();
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(Bits(threaded.estimated_mean[j]), kGolden[j]) << j;
    }
  }
  {
    const auto schema =
        freq::CategoricalSchema::Create(std::vector<std::size_t>(4, 5))
            .value();
    Rng rng(91);
    const auto dataset =
        freq::GenerateCategorical(6000, schema, 1.0, &rng).value();
    const std::uint64_t kGoldenOue[] = {
        0x3fda3e6f46671573ULL, 0x3fcf72609d8dfbdeULL, 0x3fc7cffc8cfa1817ULL,
        0x3fac3770da8ae805ULL, 0x3fba65d0240e0e4cULL};
    const std::uint64_t kGoldenOlh[] = {
        0x3fd80fd12e6c58e5ULL, 0x3fcbe0ae9ef645c0ULL, 0x3fc1e9b2a780d496ULL,
        0x3fbaa6dedcf71039ULL, 0x3fc4c28cee34abc5ULL};
    for (const ReportEncoding encoding :
         {ReportEncoding::kOue, ReportEncoding::kOlh}) {
      freq::FrequencyOptions opts;
      opts.total_epsilon = 2.0;
      opts.report_dims = 2;
      opts.seed = 6;
      opts.num_threads = 1;
      opts.encoding = encoding;
      const auto run =
          freq::RunFrequencyEstimation(dataset, nullptr, opts).value();
      const std::uint64_t* golden =
          encoding == ReportEncoding::kOue ? kGoldenOue : kGoldenOlh;
      for (std::size_t k = 0; k < 5; ++k) {
        EXPECT_EQ(Bits(run.raw[0][k]), golden[k])
            << protocol::ReportEncodingName(encoding) << " " << k;
      }
      opts.num_threads = 4;
      const auto threaded =
          freq::RunFrequencyEstimation(dataset, nullptr, opts).value();
      for (std::size_t k = 0; k < 5; ++k) {
        EXPECT_EQ(Bits(threaded.raw[0][k]), golden[k])
            << protocol::ReportEncodingName(encoding) << " " << k;
      }
    }
  }
  {
    // Mixed cardinalities: OUE draws ceil(v/4) words per dimension, so a
    // 2-, 5-, 9- and 4-category schema covers a partial last word, an
    // exact one and a multi-word vector. Every raw entry is pinned.
    const auto schema =
        freq::CategoricalSchema::Create({2, 5, 9, 4}).value();
    Rng rng(93);
    const auto dataset =
        freq::GenerateCategorical(6000, schema, 1.0, &rng).value();
    const std::uint64_t kGoldenOue[] = {
        0x3fe42aa4770c6424ULL, 0x3fd7aab711e737b8ULL, 0x3fdcf96bf6facd3fULL,
        0x3fcd27d81dd36d0dULL, 0x3fc287016ba102f0ULL, 0x3fbbc77603e2d31fULL,
        0x3fb0f5270d4917f3ULL, 0x3fdadc30fd8d4bcaULL, 0x3fc30f6882c11cb4ULL,
        0x3fbf3038ba3d20d5ULL, 0x3fb3ec813fecd8ebULL, 0x3fa073c081d07ee1ULL,
        0x3fa76258cd159775ULL, 0x3fb61710d7727096ULL, 0x3f9bb48ecb2d2b4aULL,
        0x3fa4c8dfb0dbae38ULL, 0x3fdcfdaecd022868ULL, 0x3fd0997e38b93510ULL,
        0x3fc2cf2720157097ULL, 0x3fc2027ed473d47aULL};
    const std::uint64_t kGoldenOlh[] = {
        0x3fe4c7e493ef6703ULL, 0x3fd67036d82131f9ULL, 0x3fdac9b74e83daddULL,
        0x3fc162f84a4449a4ULL, 0x3fc66bf043f913abULL, 0x3fbeaea719a5af24ULL,
        0x3fc3465547e81563ULL, 0x3fd4f39950ce0026ULL, 0x3fc35003ca9aa891ULL,
        0x3fb4ee8b2d42963dULL, 0x3fb95aea473f44f7ULL, 0x3fb0d30e4bfc864cULL,
        0x3fad39bd7dfc5ddfULL, 0x3f9d622e9a57ad27ULL, 0x3fae7d4660d6d8e3ULL,
        0x3fc0a080e88a630fULL, 0x3fda8b28b28b28b1ULL, 0x3fcc4ec4ec4ec4ecULL,
        0x3fcbfabfabfabfadULL, 0x3fc2a02a02a02a03ULL};
    for (const ReportEncoding encoding :
         {ReportEncoding::kOue, ReportEncoding::kOlh}) {
      freq::FrequencyOptions opts;
      opts.total_epsilon = 2.0;
      opts.report_dims = 2;
      opts.seed = 8;
      opts.encoding = encoding;
      const std::uint64_t* golden =
          encoding == ReportEncoding::kOue ? kGoldenOue : kGoldenOlh;
      for (const std::size_t threads : {1u, 4u}) {
        opts.num_threads = threads;
        const auto run =
            freq::RunFrequencyEstimation(dataset, nullptr, opts).value();
        for (std::size_t j = 0; j < 4; ++j) {
          for (std::size_t k = 0; k < schema.Cardinality(j); ++k) {
            EXPECT_EQ(Bits(run.raw[j][k]), golden[schema.EntryOffset(j) + k])
                << protocol::ReportEncodingName(encoding) << " threads "
                << threads << " " << j << ":" << k;
          }
        }
      }
    }
  }
}

std::string TempShardDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "hdldp_encodings_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(EncodingPipelineTest, OracleFrequenciesAcrossResidentAndShard) {
  // Mirror of tests/test_chunk_source.cc: oracle estimates must be
  // bit-identical whether the population is resident or read back from
  // disk shards, at any thread count.
  const auto schema =
      freq::CategoricalSchema::Create(std::vector<std::size_t>(4, 5)).value();
  Rng rng(91);
  const auto dataset =
      freq::GenerateCategorical(6000, schema, 1.0, &rng).value();

  const std::string dir = TempShardDir("oracle_identity");
  const freq::CategoricalChunkSource categorical(&dataset);
  ASSERT_TRUE(data::WriteShards(categorical, dir).ok());
  const auto shard = data::ShardFileSource::Open(dir);
  ASSERT_TRUE(shard.ok());

  for (const ReportEncoding encoding :
       {ReportEncoding::kOue, ReportEncoding::kOlh}) {
    freq::FrequencyOptions opts;
    opts.total_epsilon = 2.0;
    opts.report_dims = 2;
    opts.seed = 6;
    opts.encoding = encoding;
    opts.num_threads = 1;
    const auto on_resident =
        freq::RunFrequencyEstimation(dataset, nullptr, opts);
    ASSERT_TRUE(on_resident.ok()) << on_resident.status().ToString();
    opts.num_threads = 4;
    const auto on_shard = freq::RunFrequencyEstimation(
        shard.value(), schema, nullptr, opts);
    ASSERT_TRUE(on_shard.ok()) << on_shard.status().ToString();
    for (std::size_t j = 0; j < 4; ++j) {
      for (std::size_t k = 0; k < 5; ++k) {
        EXPECT_EQ(Bits(on_resident.value().raw[j][k]),
                  Bits(on_shard.value().raw[j][k]))
            << protocol::ReportEncodingName(encoding) << " " << j << ":" << k;
        EXPECT_EQ(Bits(on_resident.value().recalibrated[j][k]),
                  Bits(on_shard.value().recalibrated[j][k]))
            << protocol::ReportEncodingName(encoding) << " " << j << ":" << k;
      }
    }
    EXPECT_EQ(Bits(on_resident.value().mse_raw),
              Bits(on_shard.value().mse_raw));
  }
}

TEST(EncodingPipelineTest, HadamardMeanAcrossResidentShardAndGenerator) {
  data::GaussianSpec spec;
  spec.num_users = 2 * data::kUsersPerChunk + 500;
  spec.num_dims = 4;
  const std::uint64_t data_seed = 77;
  const auto eager = data::GenerateChunkKeyed(spec, data_seed).value();
  const data::ResidentChunkSource resident(&eager);
  const auto generator =
      data::GeneratorChunkSource::Create(spec, data_seed).value();
  const std::string dir = TempShardDir("hadamard_identity");
  data::ShardWriterOptions shard_opts;
  shard_opts.chunks_per_file = 1;  // cross file seams too
  ASSERT_TRUE(data::WriteShards(generator, dir, shard_opts).ok());
  const auto shard = data::ShardFileSource::Open(dir);
  ASSERT_TRUE(shard.ok());

  protocol::PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.report_dims = 2;
  opts.seed = 5;
  opts.encoding = ReportEncoding::kHadamard1;
  opts.num_threads = 1;
  const auto on_resident =
      protocol::RunMeanEstimation(resident, nullptr, opts);
  ASSERT_TRUE(on_resident.ok()) << on_resident.status().ToString();
  opts.num_threads = 4;
  const auto on_shard =
      protocol::RunMeanEstimation(shard.value(), nullptr, opts);
  const auto on_generator =
      protocol::RunMeanEstimation(generator, nullptr, opts);
  ASSERT_TRUE(on_shard.ok());
  ASSERT_TRUE(on_generator.ok());
  for (std::size_t j = 0; j < spec.num_dims; ++j) {
    EXPECT_EQ(Bits(on_resident.value().estimated_mean[j]),
              Bits(on_shard.value().estimated_mean[j]))
        << j;
    EXPECT_EQ(Bits(on_resident.value().estimated_mean[j]),
              Bits(on_generator.value().estimated_mean[j]))
        << j;
  }
  EXPECT_EQ(Bits(on_resident.value().mse), Bits(on_shard.value().mse));
  EXPECT_EQ(Bits(on_resident.value().mse), Bits(on_generator.value().mse));
}

// ---------------------------------------------------------------------------
// Service end-to-end: compact streams ingest through the codec with the
// same worker-count invariance, reconciliation, byte ledger and snapshot
// guarantees as the numeric path.
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "hdldp_encodings_" + name;
  std::remove(path.c_str());
  return path;
}

service::ReportStreamOptions CompactStreamOptions(ReportEncoding encoding) {
  service::ReportStreamOptions options;
  options.encoding = encoding;
  options.num_reports = 600;
  options.num_tenants = 3;
  options.reports_per_tick = 150;
  options.epsilon = 2.0;
  if (encoding == ReportEncoding::kHadamard1) {
    options.workload = protocol::Workload::kMean;
    options.num_dims = 8;
    options.report_dims = 3;
    options.seed = 21;
  } else {
    options.workload = protocol::Workload::kFrequency;
    options.num_dims = 4;  // questions
    options.num_categories = 3;
    options.report_dims = 2;
    options.seed = encoding == ReportEncoding::kOue ? 22 : 23;
  }
  return options;
}

void ExpectSameServiceRun(const service::AggregationService& a,
                          const service::AggregationService& b) {
  const service::ServiceStats sa = a.Stats();
  const service::ServiceStats sb = b.Stats();
  EXPECT_EQ(sa.submitted, sb.submitted);
  EXPECT_EQ(sa.accepted, sb.accepted);
  EXPECT_EQ(sa.accepted_payload_bytes, sb.accepted_payload_bytes);
  EXPECT_EQ(sa.deduped, sb.deduped);
  EXPECT_EQ(sa.rejected_malformed, sb.rejected_malformed);
  EXPECT_EQ(sa.rejected_invalid, sb.rejected_invalid);
  EXPECT_EQ(sa.published_windows, sb.published_windows);
  const auto wa = a.PublishedWindows();
  const auto wb = b.PublishedWindows();
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].index, wb[i].index);
    EXPECT_EQ(wa[i].report_count, wb[i].report_count);
    ASSERT_EQ(wa[i].estimate.size(), wb[i].estimate.size());
    EXPECT_EQ(0, std::memcmp(wa[i].estimate.data(), wb[i].estimate.data(),
                             wa[i].estimate.size() * sizeof(double)))
        << "window " << wa[i].index << " estimates differ bitwise";
  }
}

TEST(ServiceEncodingTest, CompactStreamsIngestWorkerCountInvariant) {
  for (const ReportEncoding encoding :
       {ReportEncoding::kHadamard1, ReportEncoding::kOue,
        ReportEncoding::kOlh}) {
    const auto stream_options = CompactStreamOptions(encoding);
    auto replay_stream = service::ReportStream::Create(stream_options).value();
    service::ServiceOptions replay_options = replay_stream.MakeServiceOptions();
    replay_options.window.width = 2;
    replay_options.num_workers = 1;
    replay_options.overload = service::OverloadPolicy::kBlock;
    auto replay = service::AggregationService::Create(replay_options).value();
    ASSERT_TRUE(service::Drive(&replay_stream, replay.get()).ok());
    ASSERT_TRUE(replay->VerifyReconciliation().ok());

    const service::ServiceStats stats = replay->Stats();
    EXPECT_EQ(stats.submitted, 600u)
        << protocol::ReportEncodingName(encoding);
    EXPECT_EQ(stats.accepted, 600u) << protocol::ReportEncodingName(encoding);
    // The communication ledger: compact payloads are small and counted.
    EXPECT_GT(stats.accepted_payload_bytes, 0u);
    EXPECT_LT(stats.accepted_payload_bytes / stats.accepted, 32u)
        << protocol::ReportEncodingName(encoding);
    EXPECT_GT(replay->PublishedWindows().size(), 0u);

    auto serve_stream = service::ReportStream::Create(stream_options).value();
    service::ServiceOptions serve_options = serve_stream.MakeServiceOptions();
    serve_options.window.width = 2;
    serve_options.num_workers = 4;
    serve_options.overload = service::OverloadPolicy::kBlock;
    serve_options.queue_capacity = 16;  // force real backpressure
    auto serve = service::AggregationService::Create(serve_options).value();
    ASSERT_TRUE(service::Drive(&serve_stream, serve.get()).ok());
    ASSERT_TRUE(serve->VerifyReconciliation().ok());
    ExpectSameServiceRun(*replay, *serve);
  }
}

TEST(ServiceEncodingTest, MismatchedPayloadKindIsRejectedInvalid) {
  const auto stream_options =
      CompactStreamOptions(ReportEncoding::kHadamard1);
  auto stream = service::ReportStream::Create(stream_options).value();
  auto service =
      service::AggregationService::Create(stream.MakeServiceOptions()).value();
  // A numeric version-1 payload reaching a hadamard1-configured service
  // is a typed rejection, never a silently biased estimate.
  protocol::UserReport numeric;
  numeric.entries.push_back(protocol::DimensionReport{0, 0.5});
  protocol::ReportEnvelope envelope;
  envelope.tenant = 0;
  envelope.sequence = 0;
  envelope.payload = protocol::EncodeReport(numeric).value();
  ASSERT_TRUE(service->Submit(protocol::EncodeEnvelope(envelope)).ok());
  ASSERT_TRUE(service->Drain().ok());
  const service::ServiceStats stats = service->Stats();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.accepted_payload_bytes, 0u);
  EXPECT_EQ(stats.rejected_malformed, 1u);
  ASSERT_TRUE(service->VerifyReconciliation().ok());
}

TEST(ServiceEncodingTest, CodecGeometryMismatchIsRejectedAtCreate) {
  const auto stream_options = CompactStreamOptions(ReportEncoding::kOue);
  auto stream = service::ReportStream::Create(stream_options).value();
  service::ServiceOptions options = stream.MakeServiceOptions();
  options.num_dims += 1;  // codec says q * c, service says otherwise
  EXPECT_FALSE(service::AggregationService::Create(options).ok());
}

TEST(ServiceEncodingTest, CompactSnapshotRestoreIsBitIdentical) {
  const auto stream_options = CompactStreamOptions(ReportEncoding::kOue);

  // Reference: the uninterrupted run.
  auto ref_stream = service::ReportStream::Create(stream_options).value();
  service::ServiceOptions base = ref_stream.MakeServiceOptions();
  base.window.width = 2;
  base.overload = service::OverloadPolicy::kBlock;
  auto reference = service::AggregationService::Create(base).value();
  ASSERT_TRUE(service::Drive(&ref_stream, reference.get()).ok());
  EXPECT_EQ(reference->Stats().shed_queue_full, 0u);
  EXPECT_EQ(reference->Stats().rejected_malformed, 0u);

  // Crash run: ingest half, snapshot, drop without Finish(), restore,
  // replay the suffix.
  service::ServiceOptions crashed = base;
  crashed.checkpoint_path = TempPath("oue_snapshot");
  crashed.digest_tag = "test-oue-snapshot";
  auto first = service::AggregationService::Create(crashed).value();
  ASSERT_FALSE(first->resumed());
  auto stream = service::ReportStream::Create(stream_options).value();
  ASSERT_EQ(service::Drive(&stream, first.get(),
                           {.snapshot_every = 300, .stop_at = 300})
                .value(),
            service::DriveEnd::kStopped);
  EXPECT_EQ(first->Stats().shed_queue_full, 0u);
  EXPECT_EQ(first->Stats().rejected_malformed, 0u);
  first.reset();  // simulated crash

  auto second = service::AggregationService::Create(crashed).value();
  ASSERT_TRUE(second->resumed());
  EXPECT_EQ(second->resume_cursor(), 300u);
  auto resumed_stream = service::ReportStream::Create(stream_options).value();
  ASSERT_TRUE(service::Drive(&resumed_stream, second.get()).ok());
  ASSERT_TRUE(second->VerifyReconciliation().ok());
  // The byte ledger survives the crash boundary exactly, alongside the
  // estimates.
  ExpectSameServiceRun(*reference, *second);
  ASSERT_TRUE(second->Finish().ok());
  auto after = service::AggregationService::Create(crashed).value();
  EXPECT_FALSE(after->resumed());
}

TEST(ServiceEncodingTest, StreamRejectsWorkloadEncodingMismatch) {
  auto options = CompactStreamOptions(ReportEncoding::kOue);
  options.workload = protocol::Workload::kMean;
  EXPECT_FALSE(service::ReportStream::Create(options).ok());
  options = CompactStreamOptions(ReportEncoding::kHadamard1);
  options.workload = protocol::Workload::kFrequency;
  EXPECT_FALSE(service::ReportStream::Create(options).ok());
}

}  // namespace
}  // namespace hdldp
