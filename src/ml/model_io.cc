#include "ml/model_io.h"

#include <cstring>

#include "io/buffered_io.h"
#include "util/format.h"

namespace m3::ml {

using util::Result;
using util::Status;

namespace {

constexpr char kMagic[4] = {'M', '3', 'M', 'L'};
constexpr uint32_t kVersion = 1;

enum class ModelKind : uint32_t {
  kLogisticRegression = 1,
  kSoftmaxRegression = 2,
  kKMeansCenters = 3,
};

struct Header {
  char magic[4];
  uint32_t version;
  uint32_t kind;
  uint32_t reserved;
};
static_assert(sizeof(Header) == 16);

Result<io::BufferedWriter> OpenForKind(const std::string& path,
                                       ModelKind kind) {
  M3_ASSIGN_OR_RETURN(io::BufferedWriter writer,
                      io::BufferedWriter::Create(path));
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.kind = static_cast<uint32_t>(kind);
  header.reserved = 0;
  M3_RETURN_IF_ERROR(writer.Append(&header, sizeof(header)));
  return writer;
}

Result<io::BufferedReader> OpenExpectingKind(const std::string& path,
                                             ModelKind kind) {
  M3_ASSIGN_OR_RETURN(io::BufferedReader reader, io::BufferedReader::Open(path));
  Header header;
  M3_RETURN_IF_ERROR(reader.ReadExact(&header, sizeof(header)));
  if (std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an M3 model file: " + path);
  }
  if (header.version != kVersion) {
    return Status::NotSupported(
        util::StrFormat("model version %u unsupported", header.version));
  }
  if (header.kind != static_cast<uint32_t>(kind)) {
    return Status::InvalidArgument(util::StrFormat(
        "model kind mismatch in %s: file has %u, expected %u", path.c_str(),
        header.kind, static_cast<uint32_t>(kind)));
  }
  return reader;
}

Status WriteVector(io::BufferedWriter* writer, la::ConstVectorView v) {
  const uint64_t n = v.size();
  M3_RETURN_IF_ERROR(writer->AppendValue(n));
  return writer->Append(v.data(), n * sizeof(double));
}

/// A declared payload of rows x cols doubles must fit in the bytes left in
/// the file. Checked before anything is allocated, so a few corrupt size
/// bytes can neither demand gigabytes nor yield a shape without storage.
Status CheckPayloadFits(const io::BufferedReader& reader,
                        const std::string& path, uint64_t rows,
                        uint64_t cols) {
  const uint64_t left = reader.file_size() - reader.position();
  // Divide rather than multiply: rows and cols may both be 2^32, whose
  // product wraps to 0.
  if (cols != 0 && rows > left / sizeof(double) / cols) {
    return Status::InvalidArgument(util::StrFormat(
        "model file %s declares %llu x %llu doubles but has %llu bytes left",
        path.c_str(), static_cast<unsigned long long>(rows),
        static_cast<unsigned long long>(cols),
        static_cast<unsigned long long>(left)));
  }
  return Status::OK();
}

Result<la::Vector> ReadVector(io::BufferedReader* reader,
                              const std::string& path) {
  M3_ASSIGN_OR_RETURN(uint64_t n, reader->ReadValue<uint64_t>());
  if (n > (1ull << 32)) {
    return Status::InvalidArgument("unreasonable vector size in model file");
  }
  M3_RETURN_IF_ERROR(CheckPayloadFits(*reader, path, n, 1));
  la::Vector v(static_cast<size_t>(n));
  M3_RETURN_IF_ERROR(reader->ReadExact(v.data(), n * sizeof(double)));
  return v;
}

Status WriteMatrix(io::BufferedWriter* writer, la::ConstMatrixView m) {
  const uint64_t rows = m.rows();
  const uint64_t cols = m.cols();
  M3_RETURN_IF_ERROR(writer->AppendValue(rows));
  M3_RETURN_IF_ERROR(writer->AppendValue(cols));
  for (size_t r = 0; r < rows; ++r) {
    M3_RETURN_IF_ERROR(writer->Append(m.Row(r).data(),
                                      cols * sizeof(double)));
  }
  return Status::OK();
}

Result<la::Matrix> ReadMatrix(io::BufferedReader* reader,
                              const std::string& path) {
  M3_ASSIGN_OR_RETURN(uint64_t rows, reader->ReadValue<uint64_t>());
  M3_ASSIGN_OR_RETURN(uint64_t cols, reader->ReadValue<uint64_t>());
  if (rows > (1ull << 32) || cols > (1ull << 32)) {
    return Status::InvalidArgument("unreasonable matrix size in model file");
  }
  M3_RETURN_IF_ERROR(CheckPayloadFits(*reader, path, rows, cols));
  la::Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  if (rows * cols > 0) {
    M3_RETURN_IF_ERROR(
        reader->ReadExact(m.data(), rows * cols * sizeof(double)));
  }
  return m;
}

}  // namespace

Status SaveModel(const std::string& path,
                 const LogisticRegressionModel& model) {
  M3_ASSIGN_OR_RETURN(io::BufferedWriter writer,
                      OpenForKind(path, ModelKind::kLogisticRegression));
  M3_RETURN_IF_ERROR(WriteVector(&writer, model.weights));
  M3_RETURN_IF_ERROR(writer.AppendValue(model.intercept));
  return writer.Close();
}

Result<LogisticRegressionModel> LoadLogisticRegressionModel(
    const std::string& path) {
  M3_ASSIGN_OR_RETURN(io::BufferedReader reader,
                      OpenExpectingKind(path, ModelKind::kLogisticRegression));
  LogisticRegressionModel model;
  M3_ASSIGN_OR_RETURN(model.weights, ReadVector(&reader, path));
  M3_ASSIGN_OR_RETURN(model.intercept, reader.ReadValue<double>());
  return model;
}

Status SaveModel(const std::string& path,
                 const SoftmaxRegressionModel& model) {
  M3_ASSIGN_OR_RETURN(io::BufferedWriter writer,
                      OpenForKind(path, ModelKind::kSoftmaxRegression));
  M3_RETURN_IF_ERROR(WriteMatrix(&writer, model.weights));
  M3_RETURN_IF_ERROR(WriteVector(&writer, model.biases));
  return writer.Close();
}

Result<SoftmaxRegressionModel> LoadSoftmaxRegressionModel(
    const std::string& path) {
  M3_ASSIGN_OR_RETURN(io::BufferedReader reader,
                      OpenExpectingKind(path, ModelKind::kSoftmaxRegression));
  SoftmaxRegressionModel model;
  M3_ASSIGN_OR_RETURN(model.weights, ReadMatrix(&reader, path));
  M3_ASSIGN_OR_RETURN(model.biases, ReadVector(&reader, path));
  if (model.biases.size() != model.weights.rows()) {
    return Status::InvalidArgument("softmax model is internally inconsistent");
  }
  return model;
}

Status SaveCenters(const std::string& path, const la::Matrix& centers) {
  M3_ASSIGN_OR_RETURN(io::BufferedWriter writer,
                      OpenForKind(path, ModelKind::kKMeansCenters));
  M3_RETURN_IF_ERROR(WriteMatrix(&writer, centers));
  return writer.Close();
}

Result<la::Matrix> LoadCenters(const std::string& path) {
  M3_ASSIGN_OR_RETURN(io::BufferedReader reader,
                      OpenExpectingKind(path, ModelKind::kKMeansCenters));
  return ReadMatrix(&reader, path);
}

}  // namespace m3::ml
