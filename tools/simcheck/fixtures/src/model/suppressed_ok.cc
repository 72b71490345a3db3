// Fixture: findings waived with simcheck: allow() must not be
// reported, and the waivers must count against the budget.
struct Node
{
    int value = 0;
};

Node *
arenaChunk(unsigned n)
{
    // simcheck: allow(raw-new) fixture: standalone comment waives next line
    Node *chunk = new Node[n];
    return chunk;
}

void
freeChunk(Node *chunk)
{
    delete[] chunk; // simcheck: allow(raw-new) fixture: trailing waiver
}
