// Figure 2: boot times grow linearly with VM image size.
//
// Methodology as in the paper: boot the same unikernel from images of
// different sizes, grown by injecting binary objects into the uncompressed
// image file; all images on a ramdisk.
#include <cstdio>

#include "bench/common.h"

int main(int argc, char** argv) {
  bench::Report::Get().Init(argc, argv, "fig02_boot_vs_image_size");
  bench::Header("Figure 2", "boot time vs VM image size",
                "daytime unikernel padded to 0..1000 MB, ramdisk, one VM at a time");
  std::printf("%-14s %-14s %-12s %s\n", "image_mb", "create_ms", "boot_ms", "total_ms");
  for (int mb = 0; mb <= 1000; mb += 100) {
    sim::Engine engine;
    lightvm::Host host(&engine, lightvm::HostSpec::Xeon4Core(),
                       lightvm::Mechanisms::ChaosNoxs());
    guests::GuestImage image =
        guests::PaddedImage(guests::DaytimeUnikernel(), lv::Bytes::MiB(mb));
    lightvm::CreateTiming t =
        lightvm::CreateBootTimed(engine, host, bench::Config("padded", image));
    if (!t.ok) {
      return 1;
    }
    bench::Point("padded", {{"image_mb", static_cast<double>(mb)},
                            {"create_ms", t.create_ms},
                            {"boot_ms", t.boot_ms}});
    std::printf("%-14d %-14.1f %-12.1f %.1f\n", mb, t.create_ms, t.boot_ms,
                t.create_ms + t.boot_ms);
  }
  bench::Footnote(
      "paper shape: linear growth, ~0.9 s at 1000 MB (image parse + load dominate)");
  bench::Report::Get().Write();
  return 0;
}
