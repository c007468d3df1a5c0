//===- tools/pinj-gen.cpp - Operator corpus generator ----------------------===//
//
// Dumps the operator corpus (makeCorpus, ops/OpFactory.h) as `.pinj`
// files — the batch-compilation corpus under tools/kernels/. Every file
// is verified to round-trip: parseKernel(printPinj(K)) must produce a
// kernel with the same structural fingerprint as the factory kernel,
// and the ctest pinj_gen_corpus_matches byte-compares a fresh dump with
// tools/kernels/, so the checked-in corpus means what the library builds.
//
// Usage:
//   pinj-gen OUTDIR
//
// Writes one `<kernel name>.pinj` per operator plus `corpus.txt`, the
// operator-list file `polyinject-opt --ops-file=` consumes (one file
// name per line, relative to the list file).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ops/OpFactory.h"
#include "service/Fingerprint.h"
#include "support/TextFile.h"

#include <cstdio>
#include <filesystem>
#include <string>

using namespace pinj;

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::fprintf(stderr, "usage: %s OUTDIR\n", Argv[0]);
    return 2;
  }
  namespace fs = std::filesystem;
  fs::path OutDir = Argv[1];
  std::error_code Ec;
  fs::create_directories(OutDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", Argv[1],
                 Ec.message().c_str());
    return 1;
  }

  // The factory names both running-example sizes after the paper's
  // figure; the files need distinct names (renaming does not change the
  // structural fingerprint — names are erased from it).
  std::vector<Kernel> Corpus = makeCorpus();
  Corpus[0].Name = "running_example_64";
  Corpus[1].Name = "running_example_96";
  std::string Error;
  std::string ListText =
      "# The pinj-gen operator corpus; paths are relative to this file.\n";
  for (const Kernel &K : Corpus) {
    std::optional<std::string> Text = printPinj(K, Error);
    if (!Text) {
      std::fprintf(stderr, "error: %s: %s\n", K.Name.c_str(),
                   Error.c_str());
      return 1;
    }
    // Round-trip gate: the parsed file must be structurally identical
    // to the factory kernel.
    std::optional<Kernel> Back = parseKernel(*Text, Error);
    if (!Back) {
      std::fprintf(stderr, "error: %s does not parse back: %s\n",
                   K.Name.c_str(), Error.c_str());
      return 1;
    }
    if (service::fingerprintKernel(*Back) != service::fingerprintKernel(K)) {
      std::fprintf(stderr,
                   "error: %s round-trip changed the fingerprint\n",
                   K.Name.c_str());
      return 1;
    }
    std::string FileName = K.Name + ".pinj";
    if (!writeFileAtomic(
            (OutDir / FileName).string(),
            "# Generated by pinj-gen from ops/OpFactory.h; do not edit.\n" +
                *Text,
            &Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    ListText += FileName + "\n";
  }
  if (!writeFileAtomic((OutDir / "corpus.txt").string(), ListText, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("wrote %zu operators + corpus.txt to %s\n", Corpus.size(),
              OutDir.string().c_str());
  return 0;
}
