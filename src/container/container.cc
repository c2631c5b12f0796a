#include "src/container/container.h"

#include "src/base/log.h"

namespace container {

ContainerImage MicropythonContainer() {
  ContainerImage image;
  image.name = "docker-micropython";
  image.layers = 5;
  image.memory = lv::Bytes::MiB(5);  // ~5 GB for 1000 containers (Fig. 14)
  image.app_start_cpu = lv::Duration::Millis(8);
  return image;
}

ContainerImage MinimalContainer() {
  ContainerImage image;
  image.name = "docker-minimal";
  image.layers = 2;
  image.memory = lv::Bytes::MiB(4);
  image.app_start_cpu = lv::Duration::Millis(2);
  return image;
}

DockerRuntime::DockerRuntime(sim::Engine* engine, hv::MemoryPool* host_memory, Costs costs)
    : engine_(engine), host_memory_(host_memory), costs_(costs) {
  // The daemon pre-allocates its initial arena at startup, before the first
  // `docker run`.
  arena_pages_ = ArenaPages(1);
  LV_CHECK_MSG(host_memory_->Reserve(arena_pages_).ok(),
               "host too small for the docker daemon arena");
}

int64_t DockerRuntime::ArenaPages(int64_t count) const {
  if (count <= 0) {
    return 0;
  }
  int64_t buckets = costs_.initial_arena_containers;
  while (buckets < count) {
    buckets *= 2;
  }
  return lv::PagesFor(costs_.daemon_arena_unit * buckets);
}

sim::Co<lv::Result<int64_t>> DockerRuntime::Run(sim::ExecCtx ctx, ContainerImage image) {
  // Daemon path + per-layer overlay mounts + namespace plumbing.
  co_await ctx.Work(costs_.daemon_base +
                    costs_.per_layer_setup * static_cast<double>(image.layers) +
                    costs_.namespace_setup);
  // Daemon bookkeeping grows with the number of running containers.
  co_await ctx.Work(costs_.per_container_overhead * static_cast<double>(count()));

  // Reserve the container's resident memory plus the super-linear
  // kernel-object overhead at this population size.
  double i = static_cast<double>(count() + 1) / costs_.kernel_overhead_knee;
  lv::Bytes overhead = lv::Bytes::MiBF(i * i);
  int64_t pages = lv::PagesFor(image.memory + overhead);
  lv::Status mem = host_memory_->Reserve(pages);
  if (!mem.ok()) {
    ++stats_.oom_failures;
    co_return mem.error();
  }
  // Daemon arena growth: power-of-two jumps cause stalls + memory spikes.
  int64_t needed_arena = ArenaPages(count() + 1);
  if (needed_arena > arena_pages_) {
    lv::Status arena = host_memory_->Reserve(needed_arena - arena_pages_);
    if (!arena.ok()) {
      host_memory_->Release(pages);
      ++stats_.oom_failures;
      co_return arena.error();
    }
    arena_pages_ = needed_arena;
    ++stats_.arena_growths;
    co_await ctx.Work(costs_.arena_growth_stall);
  }

  co_await ctx.Work(image.app_start_cpu);
  int64_t id = next_id_++;
  containers_.emplace(id, Record{std::move(image), pages});
  ++stats_.started;
  co_return id;
}

lv::Bytes DockerRuntime::MemoryUsed() const {
  int64_t pages = arena_pages_;
  for (const auto& [id, record] : containers_) {
    pages += record.reserved_pages;
  }
  return lv::kPageSize * pages;
}

ProcessRuntime::ProcessRuntime(sim::Engine* engine, hv::MemoryPool* host_memory,
                               Costs costs)
    : engine_(engine), host_memory_(host_memory), costs_(costs), rng_(42) {}

sim::Co<lv::Result<int64_t>> ProcessRuntime::ForkExec(sim::ExecCtx ctx) {
  // fork/exec latency has a heavy tail but no dependence on process count.
  co_await ctx.Work(rng_.Skewed(costs_.fork_exec_median, costs_.fork_exec_sigma));
  lv::Status mem = host_memory_->Reserve(lv::PagesFor(costs_.process_memory));
  if (!mem.ok()) {
    co_return mem.error();
  }
  ++count_;
  co_return next_pid_++;
}

lv::Bytes ProcessRuntime::MemoryUsed() const {
  return costs_.process_memory * count_;
}

}  // namespace container
