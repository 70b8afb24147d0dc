#include "runtime/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace mn::rt {

const char* op_type_name(OpType t) {
  // Exhaustive: no default, and the count is pinned so a new OpType fails to
  // compile here (and at every other asserting switch) until handled.
  static_assert(static_cast<int>(OpType::kOpTypeCount) == 7,
                "update op_type_name() (and every switch asserting "
                "kOpTypeCount) when adding an op type");
  switch (t) {
    case OpType::kConv2D: return "CONV_2D";
    case OpType::kDepthwiseConv2D: return "DEPTHWISE_CONV_2D";
    case OpType::kFullyConnected: return "FULLY_CONNECTED";
    case OpType::kAvgPool2D: return "AVERAGE_POOL_2D";
    case OpType::kMaxPool2D: return "MAX_POOL_2D";
    case OpType::kAdd: return "ADD";
    case OpType::kSoftmax: return "SOFTMAX";
    case OpType::kOpTypeCount: break;  // not a real op type
  }
  return "UNKNOWN";
}

const char* activation_name(Activation a) {
  static_assert(static_cast<int>(Activation::kActivationCount) == 3,
                "update activation_name() (and activation_range) when adding "
                "an activation");
  switch (a) {
    case Activation::kNone: return "NONE";
    case Activation::kRelu: return "RELU";
    case Activation::kRelu6: return "RELU6";
    case Activation::kActivationCount: break;  // not a real activation
  }
  return "UNKNOWN";
}

void activation_range(Activation act, const quant::QuantParams& out_qp,
                      int bits, int32_t* act_min, int32_t* act_max) {
  const quant::QRange r = quant::qrange(bits);
  *act_min = r.qmin;
  *act_max = r.qmax;
  if (act == Activation::kRelu) {
    *act_min = std::max(*act_min, out_qp.zero_point);
  } else if (act == Activation::kRelu6) {
    *act_min = std::max(*act_min, out_qp.zero_point);
    const int32_t six =
        out_qp.zero_point + static_cast<int32_t>(std::lround(6.f / out_qp.scale));
    *act_max = std::min(*act_max, six);
  }
}

int64_t OpDef::macs(const std::vector<TensorDef>& tensors) const {
  const TensorDef& out = tensors.at(static_cast<size_t>(output));
  switch (type) {
    case OpType::kConv2D: {
      const TensorDef& w = tensors.at(static_cast<size_t>(inputs.at(1)));
      // Weights [out_ch, kh, kw, in_ch].
      return out.elements() * w.shape.dim(1) * w.shape.dim(2) * w.shape.dim(3);
    }
    case OpType::kDepthwiseConv2D: {
      const TensorDef& w = tensors.at(static_cast<size_t>(inputs.at(1)));
      // Weights [1, kh, kw, ch].
      return out.elements() * w.shape.dim(1) * w.shape.dim(2);
    }
    case OpType::kFullyConnected: {
      const TensorDef& w = tensors.at(static_cast<size_t>(inputs.at(1)));
      return w.shape.dim(0) * w.shape.dim(1);
    }
    default:
      return 0;
  }
}

int64_t OpDef::op_count(const std::vector<TensorDef>& tensors) const {
  const int64_t m = macs(tensors);
  if (m > 0) return 2 * m;  // 1 MAC = 2 ops (paper footnote 2)
  // Non-MAC ops: one op per output element (pool window adds, residual adds).
  const TensorDef& out = tensors.at(static_cast<size_t>(output));
  if (type == OpType::kAvgPool2D || type == OpType::kMaxPool2D)
    return out.elements() * kh * kw;
  return out.elements();
}

int64_t ModelDef::total_ops() const {
  int64_t n = 0;
  for (const OpDef& op : ops) n += op.op_count(tensors);
  return n;
}

int64_t ModelDef::total_macs() const {
  int64_t n = 0;
  for (const OpDef& op : ops) n += op.macs(tensors);
  return n;
}

int64_t ModelDef::graph_def_bytes() const {
  // Flatbuffer-structure analog: header, per-op records (opcode, indices,
  // builtin options), per-tensor records (shape, quant params, name).
  int64_t bytes = 512;
  bytes += static_cast<int64_t>(ops.size()) * 64;
  for (const TensorDef& t : tensors) {
    bytes += 48 + static_cast<int64_t>(t.name.size());
    bytes += static_cast<int64_t>(t.channel_scales.size()) * 8;  // scale + zp
  }
  return bytes;
}

int64_t TflmOverheads::persistent_sram_bytes(const ModelDef& m) {
  // Per-op kernel data + per-tensor TfLiteTensor structs + buffered
  // quantization parameters. Calibrated against the paper's recordings:
  // ~34 KB for the Fig. 2 KWS model (mid-teens of ops, wide per-channel
  // scale tables) while 60+-op MobileNetV2 stacks stay in the same range
  // (VWW-S totals ~70 KB of SRAM including its arena).
  int64_t bytes = 2048;
  bytes += static_cast<int64_t>(m.ops.size()) * 256;
  for (const TensorDef& t : m.tensors)
    bytes += 48 + static_cast<int64_t>(t.channel_scales.size()) * 4;
  return bytes;
}

// ---------------------------------------------------------- serialization --

namespace {

class Writer {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void i32(int32_t v) { raw(&v, 4); }
  void u32(uint32_t v) { raw(&v, 4); }
  void i64(int64_t v) { raw(&v, 8); }
  void f32(float v) { raw(&v, 4); }
  void str(const std::string& s) {
    i32(static_cast<int32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

// Internal parse failure; thrown by Reader, caught and converted to an
// RtError before it can escape try_deserialize.
struct ParseFailure {
  ErrorCode code;
  std::string message;
};

// Bounds-checked reader. Every count/length is validated against the bytes
// actually remaining in the stream *before* any allocation, so a flipped
// length field yields a typed error instead of a multi-gigabyte resize.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> b) : buf_(b) {}
  uint8_t u8() {
    if (pos_ >= buf_.size()) fail(ErrorCode::kTruncated, "byte");
    return buf_[pos_++];
  }
  int32_t i32() {
    int32_t v;
    raw(&v, 4);
    return v;
  }
  uint32_t u32() {
    uint32_t v;
    raw(&v, 4);
    return v;
  }
  int64_t i64() {
    int64_t v;
    raw(&v, 8);
    return v;
  }
  float f32() {
    float v;
    raw(&v, 4);
    return v;
  }
  std::string str() {
    const int32_t n = i32();
    if (n < 0 || static_cast<size_t>(n) > remaining())
      fail(ErrorCode::kCorruptString, "string length " + std::to_string(n));
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                  static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return s;
  }
  void raw(void* p, size_t n) {
    if (n == 0) return;  // p may be null (an empty weights blob's data())
    if (n > remaining())
      fail(ErrorCode::kTruncated, "need " + std::to_string(n) + " bytes, have " +
                                      std::to_string(remaining()));
    std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }
  // A count of records each at least `min_record_bytes` long. Rejects
  // counts that cannot possibly fit in the remaining stream.
  int32_t count(const char* what, size_t min_record_bytes) {
    const int32_t n = i32();
    if (n < 0 || static_cast<size_t>(n) > remaining() / min_record_bytes)
      fail(ErrorCode::kAbsurdSize,
           std::string(what) + " count " + std::to_string(n) + " impossible for " +
               std::to_string(remaining()) + " remaining bytes");
    return n;
  }
  size_t pos() const { return pos_; }
  size_t remaining() const { return buf_.size() - pos_; }
  std::span<const uint8_t> slice(size_t from, size_t to) const {
    return buf_.subspan(from, to - from);
  }
  [[noreturn]] void fail(ErrorCode code, const std::string& detail) const {
    throw ParseFailure{code, "ModelDef: " + detail + " at offset " +
                                 std::to_string(pos_)};
  }

 private:
  std::span<const uint8_t> buf_;
  size_t pos_ = 0;
};

// Per-dimension and per-tensor caps: far above any deployable MCU model, but
// small enough that a corrupted shape cannot overflow the int64 byte math or
// provoke an absurd arena allocation downstream.
constexpr int64_t kMaxDim = int64_t{1} << 28;
constexpr int64_t kMaxTensorElements = int64_t{1} << 31;
constexpr int32_t kMaxOpInputs = 8;

void write_graph_section(Writer& w, const ModelDef& m) {
  w.str(m.name);
  w.i32(m.input_tensor);
  w.i32(m.output_tensor);
  w.i32(static_cast<int32_t>(m.tensors.size()));
  for (const TensorDef& t : m.tensors) {
    w.str(t.name);
    w.i32(t.shape.rank());
    for (int i = 0; i < t.shape.rank(); ++i) w.i64(t.shape.dim(i));
    w.f32(t.qp.scale);
    w.i32(t.qp.zero_point);
    w.i32(static_cast<int32_t>(t.channel_scales.size()));
    for (float s : t.channel_scales) w.f32(s);
    w.i32(t.bits);
    w.u8(t.is_const ? 1 : 0);
    w.i64(t.blob_offset);
  }
  w.i32(static_cast<int32_t>(m.ops.size()));
  for (const OpDef& op : m.ops) {
    w.u8(static_cast<uint8_t>(op.type));
    w.u8(static_cast<uint8_t>(op.act));
    w.i32(static_cast<int32_t>(op.inputs.size()));
    for (int i : op.inputs) w.i32(i);
    w.i32(op.output);
    w.i32(op.stride);
    w.i32(op.kh);
    w.i32(op.kw);
    w.i32(op.pad_h);
    w.i32(op.pad_w);
  }
}

// Parses the graph section shared by V1 and V2 plus the trailing weights
// blob. Throws ParseFailure on any malformed field.
ModelDef read_body(Reader& r) {
  ModelDef m;
  m.name = r.str();
  m.input_tensor = r.i32();
  m.output_tensor = r.i32();
  const int32_t nt = r.count("tensor", 33);  // minimal tensor record bytes
  m.tensors.reserve(static_cast<size_t>(nt));
  for (int32_t i = 0; i < nt; ++i) {
    TensorDef t;
    t.name = r.str();
    const int32_t rank = r.i32();
    if (rank < 1 || rank > Shape::kMaxRank)
      r.fail(ErrorCode::kBadRank, "rank " + std::to_string(rank));
    Shape s;
    if (rank == 1) s = Shape{0};
    else if (rank == 2) s = Shape{0, 0};
    else if (rank == 3) s = Shape{0, 0, 0};
    else s = Shape{0, 0, 0, 0};
    int64_t elements = 1;
    for (int d = 0; d < rank; ++d) {
      const int64_t v = r.i64();
      if (v < 0 || v > kMaxDim)
        r.fail(ErrorCode::kAbsurdSize, "dim " + std::to_string(v));
      s.set_dim(d, v);
      elements *= std::max<int64_t>(v, 1);
      if (elements > kMaxTensorElements)
        r.fail(ErrorCode::kAbsurdSize, "tensor " + t.name + " too large");
    }
    t.shape = s;
    t.qp.scale = r.f32();
    t.qp.zero_point = r.i32();
    const int32_t ncs = r.count("channel scale", 4);
    t.channel_scales.resize(static_cast<size_t>(ncs));
    for (int32_t k = 0; k < ncs; ++k)
      t.channel_scales[static_cast<size_t>(k)] = r.f32();
    t.bits = r.i32();
    if (t.bits != 4 && t.bits != 8 && t.bits != 32)
      r.fail(ErrorCode::kGraphInvalid, "bits " + std::to_string(t.bits));
    t.is_const = r.u8() != 0;
    t.blob_offset = r.i64();
    m.tensors.push_back(std::move(t));
  }
  const int32_t no = r.count("op", 30);  // minimal op record bytes
  m.ops.reserve(static_cast<size_t>(no));
  for (int32_t i = 0; i < no; ++i) {
    OpDef op;
    const uint8_t type = r.u8();
    if (type >= static_cast<uint8_t>(OpType::kOpTypeCount))
      r.fail(ErrorCode::kBadOpType, "op type " + std::to_string(type));
    op.type = static_cast<OpType>(type);
    const uint8_t act = r.u8();
    if (act >= static_cast<uint8_t>(Activation::kActivationCount))
      r.fail(ErrorCode::kBadOpType, "activation " + std::to_string(act));
    op.act = static_cast<Activation>(act);
    const int32_t ni = r.i32();
    if (ni < 0 || ni > kMaxOpInputs)
      r.fail(ErrorCode::kAbsurdSize, "op input count " + std::to_string(ni));
    for (int32_t k = 0; k < ni; ++k) op.inputs.push_back(r.i32());
    op.output = r.i32();
    op.stride = r.i32();
    op.kh = r.i32();
    op.kw = r.i32();
    op.pad_h = r.i32();
    op.pad_w = r.i32();
    m.ops.push_back(std::move(op));
  }
  const int64_t blob = r.i64();
  if (blob < 0 || static_cast<uint64_t>(blob) > r.remaining())
    r.fail(ErrorCode::kAbsurdSize, "weights blob size " + std::to_string(blob));
  m.weights_blob.resize(static_cast<size_t>(blob));
  r.raw(m.weights_blob.data(), static_cast<size_t>(blob));
  if (r.remaining() != 0)
    r.fail(ErrorCode::kTrailingBytes,
           std::to_string(r.remaining()) + " bytes after weights blob");
  return m;
}

}  // namespace

std::vector<uint8_t> ModelDef::serialize() const {
  Writer body;
  write_graph_section(body, *this);
  Writer w;
  w.u32(kMagicV2);
  w.u32(crc32(body.bytes()));
  w.u32(weights_crc());
  w.raw(body.bytes().data(), body.bytes().size());
  w.i64(static_cast<int64_t>(weights_blob.size()));
  w.raw(weights_blob.data(), weights_blob.size());
  return w.take();
}

std::vector<uint8_t> ModelDef::serialize_legacy_v1() const {
  Writer w;
  w.u32(kMagicV1);
  write_graph_section(w, *this);
  w.i64(static_cast<int64_t>(weights_blob.size()));
  w.raw(weights_blob.data(), weights_blob.size());
  return w.take();
}

uint32_t ModelDef::weights_crc() const { return crc32(weights_blob); }

uint32_t ModelDef::image_crc() const {
  const std::vector<uint8_t> bytes = serialize();
  return crc32(bytes);
}

Expected<ModelDef> ModelDef::try_deserialize(std::span<const uint8_t> bytes) {
  try {
    Reader r(bytes);
    const uint32_t magic = r.u32();
    if (magic != kMagicV1 && magic != kMagicV2) {
      return RtError{ErrorCode::kBadMagic,
                     "ModelDef: bad magic 0x" + [&] {
                       char buf[16];
                       std::snprintf(buf, sizeof(buf), "%08X", magic);
                       return std::string(buf);
                     }()};
    }
    uint32_t graph_crc = 0, blob_crc = 0;
    if (magic == kMagicV2) {
      graph_crc = r.u32();
      blob_crc = r.u32();
    }
    const size_t body_start = r.pos();
    ModelDef m = read_body(r);
    if (magic == kMagicV2) {
      // The graph section spans [body_start, end-of-ops); recompute its CRC
      // from the raw bytes (end of ops = end of stream - 8 - blob bytes).
      const size_t body_end = bytes.size() - 8 - m.weights_blob.size();
      const uint32_t got_graph = crc32(r.slice(body_start, body_end));
      if (got_graph != graph_crc)
        return RtError{ErrorCode::kCrcMismatch,
                       "ModelDef: graph metadata CRC mismatch"};
      const uint32_t got_blob = crc32(m.weights_blob);
      if (got_blob != blob_crc)
        return RtError{ErrorCode::kCrcMismatch,
                       "ModelDef: weights blob CRC mismatch"};
    }
    if (auto err = m.check()) return *err;
    return m;
  } catch (const ParseFailure& f) {
    return RtError{f.code, f.message};
  } catch (const std::exception& e) {
    return RtError{ErrorCode::kTruncated, std::string("ModelDef: ") + e.what()};
  }
}

ModelDef ModelDef::deserialize(const std::vector<uint8_t>& bytes) {
  return try_deserialize(bytes).take_or_throw();
}

void ModelDef::save(const std::string& path) const {
  const auto bytes = serialize();
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("ModelDef::save: cannot open " + path);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

Expected<ModelDef> ModelDef::try_load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    return RtError{ErrorCode::kIoError, "ModelDef::load: cannot open " + path};
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
  return try_deserialize(bytes);
}

ModelDef ModelDef::load(const std::string& path) {
  return try_load(path).take_or_throw();
}

namespace {

// Worst-case |int32 accumulator| of a conv / depthwise / FC op: every product
// at its extreme, |x - zp| = 255 (int8 zero point) times |w| = 128, summed
// over the fan-in, plus the largest |bias|. Past INT32_MAX the reference
// kernels' accumulation is signed-overflow UB while the SIMD paths wrap.
// A fault after load keeps this bound for the MAC sums (a flipped weight is
// still int8) and only reaches the bias add, which every kernel wraps.
// Fan-in saturates at 2^31, far past any admissible op, so the product
// cannot overflow int64 whatever the (in-memory) shape holds.
int64_t worst_case_accumulator(const std::vector<TensorDef>& tensors,
                               const std::vector<uint8_t>& blob,
                               const OpDef& op) {
  constexpr int64_t kFanInCap = int64_t{1} << 31;
  const TensorDef& w = tensors[static_cast<size_t>(op.inputs[1])];
  // Weights: conv [out][kh][kw][in], depthwise [1][kh][kw][ch], FC
  // [out][in]; the fan-in is the product of the dims after the first
  // (depthwise: kh*kw only).
  const int last_dim = op.type == OpType::kDepthwiseConv2D ? 3 : w.shape.rank();
  int64_t fan_in = 1;
  for (int d = 1; d < last_dim; ++d)
    fan_in = std::min(fan_in * std::min(w.shape.dim(d), kFanInCap), kFanInCap);
  int64_t max_bias = 0;
  if (op.inputs.size() > 2 && op.inputs[2] >= 0) {
    const TensorDef& b = tensors[static_cast<size_t>(op.inputs[2])];
    if (b.is_const && b.bits == 32) {
      for (int64_t k = 0; k < b.elements(); ++k) {
        int32_t v = 0;
        std::memcpy(&v, blob.data() + b.blob_offset + 4 * k, 4);
        max_bias = std::max(max_bias, std::abs(int64_t{v}));
      }
    }
  }
  return fan_in * 255 * 128 + max_bias;
}

}  // namespace

std::optional<RtError> ModelDef::check() const {
  const int nt = static_cast<int>(tensors.size());
  auto bad_id = [&](int id) { return id < 0 || id >= nt; };
  auto id_error = [&](int id, const char* what) {
    return RtError{ErrorCode::kBadTensorId,
                   "ModelDef: bad tensor id " + std::to_string(id) + " for " + what};
  };
  if (bad_id(input_tensor)) return id_error(input_tensor, "model input");
  if (bad_id(output_tensor)) return id_error(output_tensor, "model output");
  for (const TensorDef& t : tensors) {
    // Requant multipliers are scale ratios; quantize_multiplier defines
    // them only for positive values.
    if (!std::isfinite(t.qp.scale) || !(t.qp.scale > 0.f))
      return RtError{ErrorCode::kGraphInvalid,
                     "ModelDef: quant scale must be finite and positive on " +
                         t.name};
    for (float s : t.channel_scales)
      if (!std::isfinite(s) || !(s > 0.f))
        return RtError{ErrorCode::kGraphInvalid,
                       "ModelDef: channel scale must be finite and positive on " +
                           t.name};
    // Kernels subtract the zero point in int16 lanes and pad with it as a
    // byte; an int8 (or int4) tensor's zero point must itself be int8.
    if ((t.bits == 4 || t.bits == 8) &&
        (t.qp.zero_point < -128 || t.qp.zero_point > 127))
      return RtError{ErrorCode::kGraphInvalid,
                     "ModelDef: zero point " + std::to_string(t.qp.zero_point) +
                         " outside [-128, 127] on " + t.name};
    if (t.is_const) {
      if (t.blob_offset < 0 ||
          t.blob_offset + t.storage_bytes() > static_cast<int64_t>(weights_blob.size()))
        return RtError{ErrorCode::kBlobOutOfRange,
                       "ModelDef: const tensor outside blob: " + t.name};
    }
  }
  for (const OpDef& op : ops) {
    if (static_cast<uint8_t>(op.type) >= static_cast<uint8_t>(OpType::kOpTypeCount))
      return RtError{ErrorCode::kBadOpType,
                     "ModelDef: op type " +
                         std::to_string(static_cast<int>(op.type)) +
                         " out of range"};
    if (static_cast<uint8_t>(op.act) >=
        static_cast<uint8_t>(Activation::kActivationCount))
      return RtError{ErrorCode::kBadOpType,
                     "ModelDef: activation " +
                         std::to_string(static_cast<int>(op.act)) +
                         " out of range"};
    // -1 marks an absent optional input (conv/FC bias); every other id must
    // resolve. Negative ids other than -1 used to slip through here and
    // reach the planner.
    for (int id : op.inputs)
      if (id != -1 && bad_id(id)) return id_error(id, op_type_name(op.type));
    if (bad_id(op.output)) return id_error(op.output, op_type_name(op.type));
    // Ops write arena tensors; a const (blob-backed) output would let an
    // invoke silently scribble over "flash" contents.
    if (tensors[static_cast<size_t>(op.output)].is_const)
      return RtError{ErrorCode::kGraphInvalid,
                     std::string("ModelDef: ") + op_type_name(op.type) +
                         " writes const tensor " +
                         tensors[static_cast<size_t>(op.output)].name};
    const bool is_mac_op = op.type == OpType::kConv2D ||
                           op.type == OpType::kDepthwiseConv2D ||
                           op.type == OpType::kFullyConnected;
    if (is_mac_op) {
      if (op.inputs.size() < 2 || op.inputs[0] < 0 || op.inputs[1] < 0)
        return RtError{ErrorCode::kGraphInvalid,
                       std::string("ModelDef: ") + op_type_name(op.type) +
                           " needs weights input"};
      const TensorDef& w = tensors[static_cast<size_t>(op.inputs[1])];
      const int want_rank = op.type == OpType::kFullyConnected ? 2 : 4;
      if (w.shape.rank() != want_rank)
        return RtError{ErrorCode::kGraphInvalid,
                       std::string("ModelDef: ") + op_type_name(op.type) +
                           " weights must be rank-" + std::to_string(want_rank) +
                           ", got " + w.shape.to_string()};
      const int64_t worst = worst_case_accumulator(tensors, weights_blob, op);
      if (worst > std::numeric_limits<int32_t>::max())
        return RtError{ErrorCode::kGraphInvalid,
                       std::string("ModelDef: ") + op_type_name(op.type) +
                           " writing " +
                           tensors[static_cast<size_t>(op.output)].name +
                           " can overflow its int32 accumulator (worst case " +
                           std::to_string(worst) + ")"};
    } else if (op.inputs.empty() || op.inputs[0] < 0) {
      return RtError{ErrorCode::kGraphInvalid,
                     std::string("ModelDef: ") + op_type_name(op.type) +
                         " needs an input"};
    }
    if (op.type == OpType::kConv2D || op.type == OpType::kDepthwiseConv2D ||
        op.type == OpType::kAvgPool2D || op.type == OpType::kMaxPool2D) {
      const TensorDef& in = tensors[static_cast<size_t>(op.inputs[0])];
      const TensorDef& out = tensors[static_cast<size_t>(op.output)];
      if (in.shape.rank() != 3 || out.shape.rank() != 3)
        return RtError{ErrorCode::kGraphInvalid,
                       std::string("ModelDef: ") + op_type_name(op.type) +
                           " activations must be rank-3 (HWC)"};
    }
    if (op.type == OpType::kAdd &&
        (op.inputs.size() < 2 || op.inputs[0] < 0 || op.inputs[1] < 0))
      return RtError{ErrorCode::kGraphInvalid, "ModelDef: ADD needs two inputs"};
  }
  return std::nullopt;
}

void ModelDef::validate() const {
  if (auto err = check()) throw_rt_error(*err);
}

}  // namespace mn::rt
