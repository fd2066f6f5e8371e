// Workload `ecosystem`: eco::run_ecosystem on a fully bound spec (serverless
// on the cluster fabric, autoscaled MMOG zones, workflow DAGs on the shared
// fabric under FCFS) at shards = nproc - 1 on one thread; traced runs add
// the same shards on as many threads. Zone actions make up most of the
// domain events, so windows and mailbox delivery of the sharded kernel
// carry the run; the DAG load is kept modest because a
// saturated shared-fabric DAG queue costs superlinear time and would make
// this workload measure the sched engine a second time.

#include <sys/resource.h>

#include <algorithm>
#include <string>
#include <vector>

#include "atlarge/eco/ecosystem.hpp"
#include "atlarge/mmog/zonesim.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/serverless/platform.hpp"
#include "atlarge/stats/rng.hpp"
#include "atlarge/workflow/generators.hpp"
#include "bench.hpp"

namespace e2e {
namespace {

using namespace atlarge;

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::uint64_t domain_events(const eco::EcosystemResult& r) {
  return r.faas.invocations.size() + r.zones.actions + r.dags.tasks_completed;
}

class EcosystemWorkload final : public Workload {
 public:
  // Timed passes run the shards on one thread. Every window ends in a
  // barrier, so on several threads a run waits, once per window, for a
  // lane whose vCPU the hypervisor has not run: on the shared 4-vCPU host
  // where this was tuned, 3/3 runs took 0.5 s at 0.4% of the machine's
  // CPU time stolen and up to 1.7 s at 17%, and ten seeds spread up to
  // 1.67, far past the 0.25 bound. One thread keeps the windows and the
  // mailbox delivery and leaves out the cross-thread barrier, which the
  // traced runs time on its own (sim.sharded.speedup, idle_ratio). One
  // core is left to the OS: at 4/4 ten seeds spread 0.32 and 0.39, at 3/3
  // 0.13.
  explicit EcosystemWorkload(const Options& o)
      : o_(o), shards_(std::max<std::size_t>(1, o.threads - 1)) {}

  void setup() override {
    const bool smoke = o_.smoke;
    eco::EcosystemSpec spec;
    spec.horizon = 4'800.0;
    spec.fabric.machines = 64;
    spec.fabric.cores_per_machine = 8;
    spec.fabric.provisioning_delay = 45.0;

    spec.serverless.enabled = true;
    spec.serverless.backing = eco::ServerlessBacking::kCluster;
    spec.serverless.instance_cores = 1;
    spec.serverless.registry = {{"api", 0.08, 0.9, 128.0},
                                {"etl", 0.5, 1.8, 512.0},
                                {"ml", 1.2, 2.5, 1024.0}};
    spec.serverless.config.keep_alive = 120.0;
    stats::Rng faas_rng(derive_seed(o_.seed, 1));
    spec.serverless.invocations = serverless::bursty_invocations(
        spec.serverless.registry.size(), 2.0, 3'600.0, 300.0, 60, faas_rng);

    spec.mmog.enabled = true;
    spec.mmog.provisioning = eco::ZoneProvisioning::kAutoscaled;
    spec.mmog.autoscaler = "React";
    spec.mmog.avatars_per_machine = 256;
    spec.mmog.report_interval = 30.0;
    spec.mmog.initial_machines = 4;
    spec.mmog.config.zones = 32;
    spec.mmog.config.crossing_time = 5.0;
    spec.mmog.config.act_mean = 10.0;
    spec.mmog.config.migrate_prob = 0.1;
    spec.mmog.config.session_mean = 2'400.0;
    spec.mmog.config.seed = derive_seed(o_.seed, 2);
    spec.mmog.arrivals = mmog::synthetic_zone_arrivals(
        smoke ? 1'000 : kAvatars, spec.mmog.config.zones, 2'400.0,
        derive_seed(o_.seed, 3));

    spec.dags.enabled = true;
    spec.dags.scheduling = eco::DagScheduling::kSharedFabric;
    spec.dags.policy = "FCFS";
    workflow::WorkloadSpec jobs;
    jobs.cls = workflow::WorkloadClass::kSynthetic;
    jobs.jobs = 64;
    jobs.horizon = 2'400.0;
    jobs.seed = derive_seed(o_.seed, 4);
    spec.dags.workload = workflow::generate(jobs);
    spec_ = std::move(spec);
  }

  void reference(Record& record, bool traced) override {
    any_cpu();  // pass() pinned this thread; the N/N run below needs all
    obs::Observability plane(0);
    eco::EcosystemSpec serial = spec_;
    serial.shards = serial.threads = 1;
    if (traced) serial.obs = &plane;
    const auto t0 = Clock::now();
    const eco::EcosystemResult r = eco::run_ecosystem(serial);
    const double dt = since(t0);
    const std::string summary = r.summary();
    if (!traced) reference_ = summary;
    record.ops.record("eco.1x1", summary == reference_,
                      Digest().text(summary).hex());
    if (!traced) return;
    serial_s_.push_back(dt);

    // The same workloads under identity bindings (no cross-domain
    // coupling), at the 1/1 layout.
    eco::EcosystemSpec identity = serial;
    identity.serverless.backing = eco::ServerlessBacking::kAbstract;
    identity.mmog.provisioning = eco::ZoneProvisioning::kUnlimited;
    identity.dags.scheduling = eco::DagScheduling::kDedicated;
    identity.dags.machines = identity.fabric.machines;
    identity.dags.cores_per_machine = identity.fabric.cores_per_machine;
    const auto i0 = Clock::now();
    const eco::EcosystemResult id = eco::run_ecosystem(identity);
    identity_s_.push_back(since(i0));
    record.ops.record("eco.identity", true, Digest().text(id.summary()).hex());

    // The timed layout's shards on as many threads: the parallel side of
    // the sharded kernel, which the timed passes leave out.
    eco::EcosystemSpec parallel = serial;
    parallel.shards = parallel.threads = shards_;
    const double cpu0 = cpu_seconds();
    const auto p0 = Clock::now();
    const eco::EcosystemResult pr = eco::run_ecosystem(parallel);
    const double pdt = since(p0);
    const std::string psummary = pr.summary();
    record.ops.record("eco.NxN", psummary == reference_,
                      Digest().text(psummary).hex());
    parallel_s_.push_back(pdt);
    record.layer("sim.sharded.idle_ratio",
                 1.0 - (cpu_seconds() - cpu0) /
                           (static_cast<double>(shards_) * pdt));
  }

  void pass(Record& record, bool traced) override {
    obs::Observability plane(0);
    eco::EcosystemSpec spec = spec_;
    spec.shards = shards_;
    spec.threads = 1;
    if (traced) spec.obs = &plane;
    // Each pass runs on the next CPU, so the median pass spans every CPU's
    // speed (see next_cpu()).
    next_cpu();
    const auto t0 = Clock::now();
    eco::EcosystemResult r;
    {
      Scope span("eco.run_ecosystem", "eco");
      r = eco::run_ecosystem(spec);
    }
    const double dt = since(t0);
    const std::string summary = r.summary();
    // Results are byte-identical across shard layouts: N/1 must equal 1/1.
    record.ops.record("eco.Nx1", summary == reference_,
                      Digest().text(summary).hex());
    const std::uint64_t events = domain_events(r);
    record.events += events;
    record.op_ms.push_back(dt * 1e3);
    record.decision_ms.push_back(dt * 1e3);
    record.op_per_pass = record.decision_per_pass = 1;
    const double rate = static_cast<double>(events) / dt;
    record.rate("events_per_s", rate);
    record.rate("evps_gmean", rate);
    record.rate("trials_per_s", 1.0 / dt);
    if (!traced) return;
    record.layer("sim.sharded.windows", static_cast<double>(r.windows));
    record.layer("sim.sharded.messages", static_cast<double>(r.messages));
    record.layer("sim.sharded.events_per_window",
                 static_cast<double>(events) / static_cast<double>(r.windows));
    record.layer("eco.events.mmog", static_cast<double>(r.zones.actions));
    record.layer("eco.events.faas",
                 static_cast<double>(r.faas.invocations.size()));
    record.layer("eco.events.dags", static_cast<double>(r.dags.tasks_completed));
    record.layer("eco.faas_denials", static_cast<double>(r.fabric.faas_denials));
    record.layer("eco.machine_leases",
                 static_cast<double>(r.fabric.machine_leases));
    record.layer("eco.autoscale_decisions",
                 static_cast<double>(r.fabric.autoscale_decisions));
  }

  // Medians over the traced passes and the traced reference runs.
  void finish(Record& record) override {
    const double serial_s = median(serial_s_);
    record.layer("sim.sharded.speedup", serial_s / median(parallel_s_));
    record.layer("eco.identity_s", median(identity_s_));
    record.layer("eco.coupling_overhead", serial_s / median(identity_s_));
  }

 private:
  static constexpr std::size_t kAvatars = 12'000;

  Options o_;
  std::size_t shards_;
  eco::EcosystemSpec spec_;
  std::string reference_;
  std::vector<double> serial_s_;
  std::vector<double> identity_s_;
  std::vector<double> parallel_s_;
};

}  // namespace

std::unique_ptr<Workload> make_ecosystem(const Options& options) {
  return std::make_unique<EcosystemWorkload>(options);
}

}  // namespace e2e
