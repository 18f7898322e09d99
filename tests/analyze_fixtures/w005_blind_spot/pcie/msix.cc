// Fixture: an endpoint file (its path ends in pcie/msix.cc) whose
// interrupt delivery never reports to a wave::check checker, so the
// dynamic checkers cannot see this ordering point -> W005.
// wave-domain: neutral
namespace wave::fixture {

struct Vector {
    int pending = 0;

    void Deliver() { ++pending; }
};

void
Send(Vector& vector)
{
    vector.Deliver();
}

}  // namespace wave::fixture
