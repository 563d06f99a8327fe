// End-to-end check of the tracing acceptance criteria: running a cluster
// simulation with the global tracer enabled and exporting Chrome trace JSON
// yields (parsed back from the file) at least one planning round, one full
// migration, one partial-migration descriptor push, one memtap fault fetch,
// and one S3 suspend/resume pair.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "src/core/oasis.h"
#include "src/hyper/memory_server.h"
#include "src/hyper/memtap.h"
#include "src/obs/trace.h"
#include "tests/mini_json.h"

namespace oasis {
namespace {

using oasis::testing::JsonParser;
using oasis::testing::JsonValue;

class ObsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Tracer::Global().SetCapacity(1 << 18);
    obs::Tracer::Global().set_enabled(true);
  }
  void TearDown() override {
    obs::Tracer::Global().set_enabled(false);
    obs::Tracer::Global().Clear();
  }
};

TEST_F(ObsIntegrationTest, ClusterRunEmitsAllRequiredSpans) {
  // A day on a small cluster with mixed activity: some users work office
  // hours (forcing full migrations of active VMs during vacates and
  // reintegrations at 9:00), the rest idle all day (partial migrations with
  // descriptor pushes; homes suspend and later resume).
  SimulationConfig config;
  config.cluster.num_home_hosts = 6;
  config.cluster.num_consolidation_hosts = 2;
  config.cluster.vms_per_home = 10;
  config.cluster.policy = ConsolidationPolicy::kFullToPartial;
  config.day = DayKind::kWeekday;
  config.seed = 20160418;
  ClusterSimulation simulation(config);
  simulation.Run();

  // One direct fault fetch (the cluster model accounts page traffic in bulk,
  // the memtap path is the per-page mechanism).
  MemoryServer server{MemoryServerConfig{}};
  server.Upload(SimTime::Zero(), /*vm=*/1, 64 * kPageSize);
  Memtap memtap(&server, /*vm=*/1, /*total_pages=*/64, /*fault_seed=*/7);
  ASSERT_TRUE(memtap.FaultIn(SimTime::Seconds(1), 5).ok());

  std::string path = ::testing::TempDir() + "/oasis_obs_integration.trace.json";
  ASSERT_TRUE(obs::Tracer::Global().ExportChromeJsonFile(path).ok());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  JsonValue root;
  ASSERT_TRUE(JsonParser::Parse(buffer.str(), &root));
  ASSERT_TRUE(root.has("traceEvents"));
  const JsonValue& events = root.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GT(events.array.size(), 0u);

  std::set<std::string> names;
  // Every descriptor push lands on the track of the host its partial VM
  // migrates to: the tid of the VM's next partial_migration span.
  std::map<double, double> push_tid;  // vm -> tid of its open push
  int pushes_checked = 0;
  for (const JsonValue& e : events.array) {
    ASSERT_TRUE(e.is_object());
    const std::string& name = e.at("name").str;
    names.insert(name);
    if (name != "descriptor_push" && name != "partial_migration") {
      continue;
    }
    double vm = e.at("args").at("vm").number;
    double tid = e.at("tid").number;
    if (name == "descriptor_push") {
      push_tid[vm] = tid;
    } else if (auto it = push_tid.find(vm); it != push_tid.end()) {
      EXPECT_EQ(it->second, tid) << "vm " << vm << "'s descriptor push is on another track";
      push_tid.erase(it);
      ++pushes_checked;
    }
  }
  EXPECT_GT(pushes_checked, 0);
  EXPECT_TRUE(push_tid.empty()) << push_tid.size() << " pushes without a partial migration";
  EXPECT_TRUE(names.count("planning_round")) << "no planning round span";
  EXPECT_TRUE(names.count("full_migration")) << "no full migration span";
  EXPECT_TRUE(names.count("descriptor_push")) << "no descriptor push span";
  EXPECT_TRUE(names.count("fault_fetch")) << "no memtap fault fetch span";
  EXPECT_TRUE(names.count("s3_suspend")) << "no S3 suspend span";
  EXPECT_TRUE(names.count("s3_resume")) << "no S3 resume span";

  std::remove(path.c_str());
}

}  // namespace
}  // namespace oasis
