#include "core/model_io.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace autra::core {

void save_library(const ModelLibrary& library, std::ostream& out) {
  // 17 significant digits round-trip IEEE doubles exactly; the restored
  // library must reproduce the live controller's decisions bit-for-bit.
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "# AuTraScale benefit-model library v1\n";
  for (const BenefitModel& model : library.models()) {
    out << "model " << model.rate << " " << model.base.size();
    for (int k : model.base) out << " " << k;
    out << " " << gp::to_string(model.kernel) << "\n";
    for (const SamplePoint& s : model.samples) {
      if (s.estimated()) continue;  // Only real measurements persist.
      out << "sample";
      for (int k : s.config) out << " " << k;
      out << " " << s.score << "\n";
    }
    if (model.gp.is_fitted()) {
      const gp::GpSnapshot snap = model.gp.snapshot();
      const std::size_t n = snap.x.rows();
      const std::size_t d = snap.x.cols();
      out << "gp " << snap.signal_variance << " " << snap.length_scale << " "
          << snap.noise_variance << " " << snap.jitter << " "
          << model.max_observations << " " << snap.observe_count << " " << n
          << " " << d << "\n";
      out << "gplo";
      for (double v : snap.x_lo) out << " " << v;
      out << "\ngphi";
      for (double v : snap.x_hi) out << " " << v;
      out << "\n";
      for (std::size_t i = 0; i < n; ++i) {
        out << "gpo";
        for (std::size_t j = 0; j < d; ++j) out << " " << snap.x(i, j);
        out << " " << snap.y[i] << "\n";
      }
      for (std::size_t i = 0; i < n; ++i) {
        out << "gpl";
        for (std::size_t j = 0; j <= i; ++j) out << " " << snap.l(i, j);
        out << "\n";
      }
    }
    out << "end\n";
  }
}

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw std::runtime_error("load_library: line " + std::to_string(line_no) +
                           ": " + what);
}

}  // namespace

ModelLibrary load_library(std::istream& in) {
  ModelLibrary library;
  std::string line;
  std::size_t line_no = 0;
  BenefitModel current;
  bool open = false;

  // In-progress gp block of the current model (absent in older files).
  // Header counts are unvalidated until `end`, so nothing is sized from
  // them: rows grow as records arrive. The factor's rows are kept packed
  // (row i has i + 1 entries) until the block is complete.
  std::optional<gp::GpSnapshot> snap;
  std::size_t gp_n = 0, gp_d = 0;
  std::size_t gp_obs_read = 0, gp_rows_read = 0;
  std::vector<double> gp_l_packed;
  bool gp_box_read = false;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line.front() == '#') continue;
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag == "model") {
      if (open) fail(line_no, "nested model record");
      BenefitModel fresh;
      current = std::move(fresh);
      snap.reset();
      std::size_t n = 0;
      if (!(ss >> current.rate >> n) || current.rate <= 0.0 || n == 0) {
        fail(line_no, "bad model header");
      }
      for (std::size_t i = 0; i < n; ++i) {
        int k = 0;
        if (!(ss >> k) || k < 1) fail(line_no, "bad base configuration");
        current.base.push_back(k);
      }
      // Optional trailing kernel name (absent in files written before the
      // kernel was persisted; those default to Matern 5/2).
      if (std::string kernel_name; ss >> kernel_name) {
        try {
          current.kernel = gp::parse_kernel_kind(kernel_name);
        } catch (const std::invalid_argument& e) {
          fail(line_no, e.what());
        }
      }
      open = true;
    } else if (tag == "sample") {
      if (!open) fail(line_no, "sample outside model record");
      SamplePoint s;
      s.config.resize(current.base.size());
      for (int& k : s.config) {
        if (!(ss >> k) || k < 1) fail(line_no, "bad sample configuration");
      }
      if (!(ss >> s.score)) fail(line_no, "missing sample score");
      // Stored samples were real measurements; the metrics themselves are
      // not persisted, so mark them with an empty snapshot.
      s.metrics = runtime::JobMetrics{};
      current.samples.push_back(std::move(s));
    } else if (tag == "gp") {
      if (!open) fail(line_no, "gp outside model record");
      if (snap.has_value()) fail(line_no, "duplicate gp record");
      snap.emplace();
      snap->kernel = current.kernel;
      int max_obs = 0;
      if (!(ss >> snap->signal_variance >> snap->length_scale >>
            snap->noise_variance >> snap->jitter >> max_obs >>
            snap->observe_count >> gp_n >> gp_d) ||
          gp_n == 0 || gp_d == 0 || max_obs < 0) {
        fail(line_no, "bad gp header");
      }
      current.max_observations = max_obs;
      gp_obs_read = gp_rows_read = 0;
      gp_l_packed.clear();
      gp_box_read = false;
    } else if (tag == "gplo" || tag == "gphi") {
      if (!snap.has_value()) fail(line_no, tag + " outside gp record");
      linalg::Vector& box = tag == "gplo" ? snap->x_lo : snap->x_hi;
      if (!box.empty()) fail(line_no, "duplicate " + tag + " record");
      for (std::size_t j = 0; j < gp_d; ++j) {
        double v = 0.0;
        if (!(ss >> v)) fail(line_no, "bad " + tag + " record");
        box.push_back(v);
      }
      gp_box_read = !snap->x_lo.empty() && !snap->x_hi.empty();
    } else if (tag == "gpo") {
      if (!snap.has_value()) fail(line_no, "gpo outside gp record");
      if (gp_obs_read >= gp_n) fail(line_no, "too many gpo records");
      linalg::Vector row;
      for (std::size_t j = 0; j < gp_d; ++j) {
        double v = 0.0;
        if (!(ss >> v)) fail(line_no, "bad gpo record");
        row.push_back(v);
      }
      double target = 0.0;
      if (!(ss >> target)) fail(line_no, "bad gpo record");
      snap->x.append_row(row);
      snap->y.push_back(target);
      ++gp_obs_read;
    } else if (tag == "gpl") {
      if (!snap.has_value()) fail(line_no, "gpl outside gp record");
      if (gp_rows_read >= gp_n) fail(line_no, "too many gpl records");
      for (std::size_t j = 0; j <= gp_rows_read; ++j) {
        double v = 0.0;
        if (!(ss >> v)) fail(line_no, "bad gpl record");
        gp_l_packed.push_back(v);
      }
      ++gp_rows_read;
    } else if (tag == "end") {
      if (!open) fail(line_no, "end without model");
      if (current.samples.empty()) fail(line_no, "model without samples");
      if (snap.has_value()) {
        if (!gp_box_read || gp_obs_read != gp_n || gp_rows_read != gp_n) {
          fail(line_no, "incomplete gp record");
        }
        snap->l = linalg::Matrix(gp_n, gp_n);
        for (std::size_t i = 0, e = 0; i < gp_n; ++i) {
          for (std::size_t j = 0; j <= i; ++j) {
            snap->l(i, j) = gp_l_packed[e++];
          }
        }
        gp::GpConfig cfg = current.gp.config();
        cfg.kernel = current.kernel;
        cfg.threads = current.threads;
        cfg.max_observations = current.max_observations;
        current.gp = gp::GpRegressor(cfg);
        try {
          current.gp.restore(*snap);
        } catch (const std::invalid_argument& e) {
          fail(line_no, e.what());
        }
        snap.reset();
      }
      library.add(std::move(current));
      open = false;
    } else {
      fail(line_no, "unknown record '" + tag + "'");
    }
  }
  if (open) fail(line_no, "unterminated model record");
  return library;
}

void save_library_file(const ModelLibrary& library, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("save_library_file: cannot open " + path);
  }
  save_library(library, out);
}

ModelLibrary load_library_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("load_library_file: cannot open " + path);
  }
  return load_library(in);
}

}  // namespace autra::core
