#include "src/guests/image.h"

namespace guests {

using lv::Bytes;
using lv::Duration;

GuestImage DaytimeUnikernel() {
  GuestImage img;
  img.name = "daytime";
  img.kind = GuestKind::kUnikernel;
  img.image_size = Bytes::KiB(480);
  img.kernel_size = img.image_size;
  img.memory = Bytes::MiBF(3.6);
  img.boot_cpu = Duration::MillisF(2.2);  // Mini-OS init + lwip + daytime app.
  img.net_stack = NetStackKind::kLwip;
  return img;
}

GuestImage NoopUnikernel() {
  GuestImage img;
  img.name = "noop";
  img.kind = GuestKind::kUnikernel;
  img.image_size = Bytes::KiB(300);
  img.kernel_size = img.image_size;
  img.memory = Bytes::MiBF(3.6);
  img.boot_cpu = Duration::MillisF(1.4);
  img.wants_net = false;  // "a noop unikernel with no devices" (§6.1)
  img.net_stack = NetStackKind::kNone;
  // Mini-OS's periodic timer: a hair above zero idle load (Figure 15 shows
  // the unikernel "only a fraction of a percentage point higher" than
  // Docker).
  img.bg_work = Duration::Micros(2);
  img.bg_period = Duration::Seconds(1);
  return img;
}

GuestImage MinipythonUnikernel() {
  GuestImage img;
  img.name = "minipython";
  img.kind = GuestKind::kUnikernel;
  img.image_size = Bytes::MiB(1);
  img.kernel_size = img.image_size;
  img.memory = Bytes::MiB(8);
  img.boot_cpu = Duration::MillisF(2.5);  // interpreter init on top of Mini-OS
  img.net_stack = NetStackKind::kLwip;
  return img;
}

GuestImage ClickOsFirewall() {
  GuestImage img;
  img.name = "clickos-fw";
  img.kind = GuestKind::kUnikernel;
  img.image_size = Bytes::MiBF(1.7);
  img.kernel_size = img.image_size;
  img.memory = Bytes::MiB(8);
  img.boot_cpu = Duration::MillisF(6.0);  // Click router config instantiation
  img.net_stack = NetStackKind::kLwip;
  // Calibrated so ~250 clients at 10 Mbps saturate 13 guest cores (Fig 16a):
  // 10 Mbps = ~833 pps of 1500B frames; 13 cores / (250 * 833 pps) = ~62 us.
  img.per_packet_cpu = Duration::Micros(62);
  return img;
}

GuestImage TlsUnikernel() {
  GuestImage img;
  img.name = "tls-unikernel";
  img.kind = GuestKind::kUnikernel;
  img.image_size = Bytes::MiB(1);
  img.kernel_size = img.image_size;
  img.memory = Bytes::MiB(16);
  img.boot_cpu = Duration::MillisF(4.0);  // axtls + lwip init; boots in 6 ms.
  img.net_stack = NetStackKind::kLwip;
  // lwip inefficiency: ~1/5 of the Linux-stack throughput (§7.3).
  img.tls_handshake_cpu = Duration::Millis(50);
  return img;
}

GuestImage TinyxNoop() {
  GuestImage img;
  img.name = "tinyx";
  img.kind = GuestKind::kTinyx;
  img.image_size = Bytes::MiBF(9.5);
  img.kernel_size = img.image_size;  // distribution bundled as initramfs
  img.memory = Bytes::MiB(30);
  img.boot_cpu = Duration::Millis(150);  // trimmed kernel + busybox init
  img.boot_wait_phases = 8;
  img.net_stack = NetStackKind::kLinux;
  // "even an idle, minimal Linux distribution such as Tinyx runs occasional
  // background tasks" — calibrated to ~1% machine utilization at 1000 VMs.
  img.bg_work = Duration::Micros(40);
  img.bg_period = Duration::Seconds(1);
  return img;
}

GuestImage TinyxMicropython() {
  GuestImage img = TinyxNoop();
  img.name = "tinyx-micropython";
  img.image_size = Bytes::MiB(11);
  img.kernel_size = img.image_size;
  img.memory = Bytes::MiB(27);  // Figure 14: ~27 GB for 1000 guests.
  img.boot_cpu = Duration::Millis(160);
  return img;
}

GuestImage TinyxTls() {
  GuestImage img = TinyxNoop();
  img.name = "tinyx-tls";
  img.image_size = Bytes::MiB(12);
  img.kernel_size = img.image_size;
  img.memory = Bytes::MiB(40);
  img.boot_cpu = Duration::Millis(160);  // boots in ~190 ms (§7.3)
  // Linux TCP stack: performance "very similar to bare-metal" — ~1400 req/s
  // over 14 cores with RSA-1024 => ~10 core-ms per handshake.
  img.tls_handshake_cpu = Duration::Millis(10);
  return img;
}

GuestImage DebianVm() {
  GuestImage img;
  img.name = "debian";
  img.kind = GuestKind::kDebian;
  img.image_size = Bytes::MiB(1100);  // 1.1 GB minimal jessie install
  img.kernel_size = Bytes::MiB(22);   // vmlinuz + initrd; the rest stays on disk
  img.memory = Bytes::MiB(111);  // "the minimum needed for them to run"
  img.boot_cpu = Duration::Millis(1250);  // full init system + services
  img.boot_wait_phases = 16;
  img.wants_block = true;
  img.net_stack = NetStackKind::kLinux;
  // Out-of-the-box services: ~25% of a 4-core machine at 1000 VMs (Fig 15)
  // => ~1 core / 1000 VMs => 1 ms of work per second per VM.
  img.bg_work = Duration::Millis(1);
  img.bg_period = Duration::Seconds(1);
  return img;
}

GuestImage DebianMicropython() {
  GuestImage img = DebianVm();
  img.name = "debian-micropython";
  img.image_size = Bytes::MiB(1105);
  return img;
}

GuestImage PaddedImage(GuestImage base, lv::Bytes total_size) {
  if (total_size > base.image_size) {
    base.image_size = total_size;
  }
  // Binary objects are injected into the uncompressed image file itself, so
  // the whole padded image is parsed and loaded (the Figure 2 methodology).
  base.kernel_size = base.image_size;
  return base;
}

}  // namespace guests
